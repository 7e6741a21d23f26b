// serve_mixed — an open-loop stream of small mixed jobs through the
// scheduler on the width-4 engine.
//
// Jobs arrive at seeded times (a Poisson process conditioned on its count,
// so each phase offers exactly rate x duration jobs) and are submitted by
// kSubmitters load threads; each job's latency runs from its *scheduled*
// arrival, so a stall also charges the jobs queued behind it. Each job's
// kind is drawn uniformly from the seed:
//
//   poisson    np=2  18x18 Jacobi solve      == poisson_v1 bitwise
//   bnb        np=2  branch-and-bound probe  == solve_sequential
//   pipeline   np=3  64-item pipeline burst  == closed-form sum
//   allgather  np=4  one allgather           == every rank's value
//
// Jobs this small make engine dispatch, scheduler admission and rank-set
// allocation a large share of each request. The end-to-end run offers the
// `lo` rate for two thirds of the measured time, where op_s is taken, and
// the `hi` rate for the last third, where ops_per_s is taken. The traced run
// alternates untraced and traced `lo` phases for half the measured time,
// then climbs a x1.25 rate ladder from `hi` to find the highest rate that
// meets the SLO.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>

#include "core/branch_and_bound.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"

namespace ppa_bench {
namespace {

using namespace ppa;

enum Kind : int { kPoisson = 0, kBnb, kPipeline, kAllgather, kKinds };
constexpr std::array<const char*, kKinds> kKindName = {"poisson", "bnb", "pipeline",
                                                       "allgather"};
constexpr std::array<int, kKinds> kKindNp = {2, 2, 3, 4};

/// Offered rates, jobs/s: 28% and 64% of the ~1250 jobs/s at which the
/// scheduler still met the SLO on the 4-core reference host. Ladders from
/// 800 jobs/s (x1.25, 3 s rungs) met it at 1250 and missed it by queueing
/// at 1562 (p99 70-75 ms, served = offered) in both runs; served fell
/// below 95% of offered at 2441. Ladders from 200 jobs/s stopped anywhere
/// from 312 to 763 jobs/s, on host stalls that put p99 just over 10 ms.
constexpr double kLoRate = 350.0;
constexpr double kHiRate = 800.0;
/// Share of the end-to-end run's measured time spent at `lo`, where the
/// latency metrics are taken; `hi` only has to show whether the served rate
/// keeps up, which a third of the time shows as well.
constexpr double kLoShare = 2.0 / 3.0;
/// SLO: p99 latency from scheduled arrival, and served >= 95% of offered.
constexpr double kSloP99 = 0.010;
constexpr double kSloServed = 0.95;
constexpr double kLadderStep = 1.25;
constexpr double kRungSeconds = 3.0;
/// hi x 1.25^9 is about 7.5x hi, far past where the scheduler saturates.
constexpr int kMaxRungs = 10;
constexpr int kSubmitters = 4;
constexpr std::size_t kWarmupJobs = 400;
constexpr long kBurstItems = 64;

/// Full binary tree of depth 8; leaf values fall 1 or 0.25 per level from
/// the root's value, so the optimum is root - 8.
struct ProbeBnbSpec {
  struct Node {
    int depth = 0;
    double value = 100.0;
  };
  using node_type = Node;
  [[nodiscard]] double bound(const Node& n) const { return n.value - (8 - n.depth); }
  [[nodiscard]] bool is_leaf(const Node& n) const { return n.depth >= 8; }
  [[nodiscard]] double leaf_value(const Node& n) const { return n.value; }
  [[nodiscard]] std::vector<Node> branch(const Node& n) const {
    return {Node{n.depth + 1, n.value - 1.0}, Node{n.depth + 1, n.value - 0.25}};
  }
};

/// Seeded inputs and their oracles.
struct Inputs {
  std::vector<app::PoissonProblem> poisson;
  std::vector<app::PoissonResult> poisson_oracle;
  std::vector<double> seq_s, seq_iters;  ///< poisson_v1 per problem
  std::vector<double> bnb_root;
  std::vector<double> bnb_oracle;  ///< solve_sequential per root
};

Inputs make_inputs(Rng& rng, bool check) {
  Inputs in;
  const std::size_t pool = check ? 2 : 8;
  for (std::size_t i = 0; i < pool; ++i) {
    in.poisson.push_back(seeded_poisson(rng, 18, 1e-5));
    const auto t0 = Clock::now();
    in.poisson_oracle.push_back(app::poisson_v1(in.poisson.back()));
    in.seq_s.push_back(seconds_between(t0, Clock::now()));
    in.seq_iters.push_back(static_cast<double>(in.poisson_oracle.back().iterations));
    in.bnb_root.push_back(100.0 + static_cast<double>(rng.uniform_int(0, 99)));
    ProbeBnbSpec spec;
    in.bnb_oracle.push_back(
        bnb::solve_sequential(spec, ProbeBnbSpec::Node{0, in.bnb_root.back()}));
  }
  return in;
}

struct Arrival {
  double at = 0.0;  ///< seconds after the phase start
  Kind kind = kPoisson;
  std::uint64_t variant = 0;  ///< picks the input: pool index, burst base, salt
};

/// `n` arrivals at sorted uniform times in [0, duration): a Poisson
/// process conditioned on its count, so every phase at one rate offers
/// exactly the same load. duration = 0 gives a closed-loop burst.
std::vector<Arrival> make_arrivals(Rng& rng, std::size_t n, double duration) {
  std::vector<Arrival> out(n);
  for (auto& a : out) {
    a.at = rng.uniform(0.0, duration);
    a.kind = static_cast<Kind>(rng.uniform_u64(kKinds));
    a.variant = rng();
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return out;
}

/// The arrivals of `seconds` at `rate` jobs/s.
std::vector<Arrival> arrivals_at_rate(Rng& rng, double rate, double seconds) {
  return make_arrivals(
      rng, static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds))),
      seconds);
}

/// One burst: items base..base+63 through source | 2v+1 | sum.
auto burst_plan(long base, long& total) {
  long next = 0;
  return pipeline::source([next, base]() mutable -> std::optional<long> {
           return next < kBurstItems ? std::optional<long>(base + next++)
                                     : std::nullopt;
         }) |
         pipeline::stage([](long v) { return 2 * v + 1; }) |
         pipeline::sink([&total](long v) { total += v; });
}

long burst_sum(long base) {
  return 2 * (kBurstItems * base + kBurstItems * (kBurstItems - 1) / 2) + kBurstItems;
}

/// Per-rank check of the allgather job: every rank sees 7r + salt at r.
bool allgather_body(mpl::Process& p, long salt) {
  const auto all = p.allgather_value(7L * p.rank() + salt);
  bool ok = static_cast<int>(all.size()) == p.size();
  for (int r = 0; ok && r < p.size(); ++r) {
    ok = all[static_cast<std::size_t>(r)] == 7L * r + salt;
  }
  return ok;
}

/// Run one job through the library's scheduler drivers; true when its
/// output matches the oracle.
bool run_job(mpl::Scheduler& sched, const Inputs& in, const Arrival& a) {
  const std::size_t pool = in.poisson.size();
  switch (a.kind) {
    case kPoisson: {
      const std::size_t k = a.variant % pool;
      const auto r = app::poisson_spmd(in.poisson[k], sched, kKindNp[kPoisson]);
      return r.iterations == in.poisson_oracle[k].iterations &&
             bitwise_equal(r.u, in.poisson_oracle[k].u);
    }
    case kBnb: {
      const std::size_t k = a.variant % pool;
      ProbeBnbSpec spec;
      return bnb::solve_engine(spec, sched, ProbeBnbSpec::Node{0, in.bnb_root[k]},
                               kKindNp[kBnb]) == in.bnb_oracle[k];
    }
    case kPipeline: {
      const auto base = static_cast<long>(a.variant % 1000);
      long total = 0;
      auto plan = burst_plan(base, total);
      (void)plan.run_engine(sched, pipeline::Config{}, kKindNp[kPipeline]);
      return total == burst_sum(base);
    }
    default: {
      const auto salt = static_cast<long>(a.variant % 1000);
      std::array<bool, kKindNp[kAllgather]> ok{};
      sched.run(kKindNp[kAllgather], [&](mpl::Process& p) {
        ok[static_cast<std::size_t>(p.rank())] = allgather_body(p, salt);
      });
      return std::all_of(ok.begin(), ok.end(), [](bool b) { return b; });
    }
  }
}

/// What the traced run keeps per traced job.
struct TracedJobs {
  std::mutex mutex;  ///< guards everything below (several submitters)
  LayerSamples layers;
  std::array<std::vector<double>, kKinds> service;
  std::array<double, kKinds> msgs{};
  std::array<double, kKinds> jobs{};
  std::vector<double> poisson_iters, poisson_body_s;
};

/// The same job as the bench's own body around the per-process library
/// call (poisson_process, solve_process, run_process, the allgather),
/// stamped at submit, body entry and exit, and return.
bool run_traced_job(mpl::Scheduler& sched, const Inputs& in, const Arrival& a,
                    TracedJobs& rec, SpanLog* log, std::uint64_t op) {
  const std::size_t pool = in.poisson.size();
  const int np = kKindNp[a.kind];
  bool ok = false;
  std::optional<JobStamps> js;
  double iterations = 0.0;
  switch (a.kind) {
    case kPoisson: {
      const std::size_t k = a.variant % pool;
      const auto pgrid = mpl::CartGrid2D::near_square(np);
      app::PoissonResult result;
      js = run_stamped(
          sched, np,
          [&](mpl::Process& p) {
            auto local = app::poisson_process(p, pgrid, in.poisson[k]);
            if (p.rank() == 0) result = std::move(local);
          },
          log, "poisson", op);
      iterations = static_cast<double>(result.iterations);
      ok = result.iterations == in.poisson_oracle[k].iterations &&
           bitwise_equal(result.u, in.poisson_oracle[k].u);
      break;
    }
    case kBnb: {
      const std::size_t k = a.variant % pool;
      ProbeBnbSpec spec;
      double best = 0.0;
      js = run_stamped(
          sched, np,
          [&](mpl::Process& p) {
            const double local =
                bnb::solve_process(spec, p, ProbeBnbSpec::Node{0, in.bnb_root[k]});
            if (p.rank() == 0) best = local;
          },
          log, "bnb", op);
      ok = best == in.bnb_oracle[k];
      break;
    }
    case kPipeline: {
      const auto base = static_cast<long>(a.variant % 1000);
      long total = 0;
      auto plan = burst_plan(base, total);
      js = run_stamped(
          sched, np, [&](mpl::Process& p) { plan.run_process(p, pipeline::Config{}); },
          log, "pipeline", op);
      ok = total == burst_sum(base);
      break;
    }
    default: {
      const auto salt = static_cast<long>(a.variant % 1000);
      std::array<bool, kKindNp[kAllgather]> each{};
      js = run_stamped(
          sched, np,
          [&](mpl::Process& p) {
            each[static_cast<std::size_t>(p.rank())] = allgather_body(p, salt);
          },
          log, "allgather", op);
      ok = std::all_of(each.begin(), each.end(), [](bool b) { return b; });
      break;
    }
  }
  const std::scoped_lock lock(rec.mutex);
  rec.layers.add_job(*js);
  rec.layers.add_counts(js->trace);
  ++rec.layers.ops;
  rec.service[a.kind].push_back(js->service_s());
  rec.msgs[a.kind] += static_cast<double>(js->trace.messages);
  rec.jobs[a.kind] += 1.0;
  if (a.kind == kPoisson) {
    rec.poisson_iters.push_back(iterations);
    rec.poisson_body_s.push_back(js->body_s());
  }
  return ok;
}

/// Latencies of one open-loop phase (or of several, appended).
struct Phase {
  std::vector<double> latency;  ///< scheduled arrival -> completion
  std::vector<double> late;     ///< scheduled arrival -> submit
  std::vector<Kind> kind;       ///< each job's kind
  OpLog jobs;                   ///< each job's scheduled arrival and completion
  double offered = 0.0;         ///< jobs/s
  double served = 0.0;          ///< jobs / (last completion - phase start)

  [[nodiscard]] bool meets_slo() const {
    return quantile(latency, 0.99) <= kSloP99 && served >= kSloServed * offered;
  }

  /// Geometric mean over the job kinds of each kind's median latency.
  /// Poisson jobs take ~10x the others, so the pooled median falls in the
  /// sparse gap between the two modes and swung by 30% from run to run;
  /// each kind's own median sits where its samples are dense. (The pooled
  /// p90 falls inside the Poisson jobs' mode and is steady as it is.)
  [[nodiscard]] double kind_median() const {
    double log_sum = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      std::vector<double> mine;
      for (std::size_t i = 0; i < latency.size(); ++i) {
        if (kind[i] == k) mine.push_back(latency[i]);
      }
      log_sum += std::log(std::max(median(mine), 1e-9));
    }
    return std::exp(log_sum / static_cast<double>(kKinds));
  }

  void append(const Phase& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    late.insert(late.end(), other.late.begin(), other.late.end());
    kind.insert(kind.end(), other.kind.begin(), other.kind.end());
    for (std::size_t i = 0; i < other.jobs.start.size(); ++i) {
      jobs.add(other.jobs.start[i], other.jobs.done[i]);
    }
  }

  /// The jobs StealMonitor::kept() keeps; `offered` and `served` as they are.
  [[nodiscard]] Phase unstolen(const StealMonitor& steal) const {
    const auto use = steal.kept(jobs.start, jobs.done);
    Phase out;
    out.offered = offered;
    out.served = served;
    for (std::size_t i = 0; i < use.size(); ++i) {
      if (!use[i]) continue;
      out.latency.push_back(latency[i]);
      out.late.push_back(late[i]);
      out.kind.push_back(kind[i]);
      out.jobs.add(jobs.start[i], jobs.done[i]);
    }
    return out;
  }
};

/// Submit `arrivals` on schedule from kSubmitters threads; `submit(a, i)`
/// runs arrival i to completion.
Phase run_phase(const std::vector<Arrival>& arrivals, double rate,
                const std::function<void(const Arrival&, std::size_t)>& submit) {
  const std::size_t n = arrivals.size();
  Phase ph;
  ph.latency.assign(n, 0.0);
  ph.late.assign(n, 0.0);
  for (const auto& a : arrivals) ph.kind.push_back(a.kind);
  ph.offered = rate;
  std::vector<Clock::time_point> due(n), done(n);
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kSubmitters; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          due[i] = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(arrivals[i].at));
          std::this_thread::sleep_until(due[i]);
          ph.late[i] = seconds_between(due[i], Clock::now());
          submit(arrivals[i], i);
          done[i] = Clock::now();
          ph.latency[i] = seconds_between(due[i], done[i]);
        }
      });
    }
  }  // jthreads join here: every slot is written before it is read below
  for (std::size_t i = 0; i < n; ++i) ph.jobs.add(due[i], done[i]);
  ph.served = static_cast<double>(n) /
              seconds_between(start, *std::max_element(done.begin(), done.end()));
  return ph;
}

}  // namespace

Outcome run_serve_mixed(const RunOptions& opt, const StealMonitor& steal, SpanLog* log) {
  Outcome out;
  out.load_threads = kSubmitters;
  Rng rng(opt.seed);
  const Inputs in = make_inputs(rng, opt.check);

  const auto plain = [&](mpl::Scheduler& sched, const Arrival& a) {
    out.checked(kKindName[a.kind], [&] { return run_job(sched, in, a); });
  };
  // Set-up ends with a closed-loop burst of the mix from every submitter,
  // so each rank set and job kind has run concurrently before the first
  // measured arrival. The burst has its own generator: the measured
  // arrivals do not depend on how many set-ups ran.
  Rng warm_rng(opt.seed + 0x9E3779B97F4A7C15ULL);
  const std::size_t burst = opt.check ? 16 : kWarmupJobs;
  SetupTimer setup(opt, steal, [&](Serving& s) {
    (void)run_phase(make_arrivals(warm_rng, burst, 0.0), 0.0,
                    [&](const Arrival& a, std::size_t) { plain(*s.sched, a); });
  });
  auto serving = setup.before();
  mpl::Scheduler& sched = *serving->sched;
  const auto untraced = [&](const Arrival& a, std::size_t) { plain(sched, a); };

  if (!opt.traced) {
    const Phase lo_all = run_phase(
        arrivals_at_rate(rng, kLoRate, opt.seconds * kLoShare), kLoRate, untraced);
    const Phase hi = run_phase(arrivals_at_rate(rng, kHiRate, opt.seconds * (1 - kLoShare)),
                               kHiRate, untraced)
                         .unstolen(steal);
    const Phase lo = lo_all.unstolen(steal);
    out.add("op_s.p50", lo.kind_median(), "s");
    out.add("op_s.p90", quantile(lo.latency, 0.9), "s");
    out.add("ops_per_s", hi.served, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("host.kept_share",
            static_cast<double>(lo.latency.size()) / static_cast<double>(lo_all.latency.size()),
            "ratio");
    out.add("lat_s.p50.lo", quantile(lo.latency, 0.5), "s");
    out.add("lat_s.p99.lo", quantile(lo.latency, 0.99), "s");
    out.add("lat_s.p50.hi", quantile(hi.latency, 0.5), "s");
    out.add("lat_s.p99.hi", quantile(hi.latency, 0.99), "s");
    out.add("gen.late_s.p99", quantile(hi.late, 0.99), "s");
    out.add("setup_s", setup.after(std::move(serving)), "s");
    return out;
  }

  // Traced: untraced and traced `lo` phases alternate over half the
  // measured time, then the rate ladder runs untraced.
  TracedJobs rec;
  std::atomic<std::uint64_t> op{0};
  const auto traced = [&](const Arrival& a, std::size_t) {
    out.checked(kKindName[a.kind], [&] {
      return run_traced_job(sched, in, a, rec, log, op.fetch_add(1));
    });
  };
  Phase all_u, all_t;
  const double phase_s = opt.seconds / (4 * kTracedRounds);
  for (int round = 0; round < kTracedRounds; ++round) {
    all_u.append(
        run_phase(arrivals_at_rate(rng, kLoRate, phase_s), kLoRate, untraced));
    all_t.append(run_phase(arrivals_at_rate(rng, kLoRate, phase_s), kLoRate, traced));
  }

  rec.layers.emit(out, sched.stats());
  emit_mesh_scaling(out, kKindNp[kPoisson], rec.poisson_iters, rec.poisson_body_s,
                    in.seq_iters, in.seq_s);
  out.add("trace.overhead", all_t.kind_median() / all_u.kind_median(), "ratio");
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = kKindName[k];
    out.add("job." + kind + ".service_s.p50", median(rec.service[k]), "s");
    out.add("mpl.trace.msgs_per_job." + kind,
            rec.msgs[k] / std::max(rec.jobs[k], 1.0), "count");
  }
  out.add("gen.late_s.p99", quantile(all_t.late, 0.99), "s");

  // Rate ladder: rung r offers hi x kLadderStep^r until a rung misses the
  // SLO; 0 when even `hi` misses it. The rung count caps the climb, not
  // the run length, so the result is not bounded by --seconds.
  double max_rate = 0.0;
  const double rung_s = opt.check ? 0.25 : kRungSeconds;
  for (int r = 0; r < kMaxRungs; ++r) {
    const double rate = kHiRate * std::pow(kLadderStep, r);
    if (!run_phase(arrivals_at_rate(rng, rate, rung_s), rate, untraced).meets_slo()) break;
    max_rate = rate;
  }
  out.add("max_rate_at_slo", max_rate, "jobs/s");
  return out;
}

}  // namespace ppa_bench
