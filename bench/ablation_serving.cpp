// Serving-layer load harness for the space-sharing scheduler
// (mpl/scheduler.hpp): latency-SLO shaped measurements over a stream of
// mixed SPMD jobs on one warm width-8 engine.
//
//   A/B    — two np=4 jobs submitted concurrently vs serialized on the
//            width-8 engine. The jobs are latency-bound (sleep-laced
//            service rounds), so space-sharing wins wall-clock by overlap
//            even on a single-core host: the serialized pair pays the sum
//            of both service times, the concurrent pair only the max.
//   closed — N submitter threads in a closed loop (submit, wait, repeat)
//            over a mixed job population; reports throughput and the
//            p50/p99/p999 submit-to-return latency distribution.
//   open   — arrivals paced to a fixed offered rate; per-job latency is
//            measured from the *scheduled arrival time*, so queueing delay
//            (and lateness under overload) counts against the SLO, as it
//            would in a real serving system.
//
// Results are written to BENCH_serving.json for cross-PR comparison.
// Correctness (every job self-validates its collective results) always
// gates the exit code; the concurrent-beats-serialized verdict gates it
// only in full mode. PPA_BENCH_SMOKE=1 selects a reduced configuration.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "apps/poisson/poisson.hpp"
#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "core/branch_and_bound.hpp"
#include "core/pipeline.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"

namespace {

using namespace ppa;
using Clock = std::chrono::steady_clock;

std::atomic<int> g_bad_results{0};

/// Latency-bound service body: `rounds` x (1 ms of "service time", a
/// barrier, a checksum allreduce). Models request handlers dominated by
/// waiting (I/O, downstream calls) rather than CPU — the workload class
/// where space-sharing narrow jobs beats serializing them regardless of
/// core count.
void slow_service_job(mpl::Process& p, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    p.barrier();
  }
  const double sum = p.allreduce(static_cast<double>(p.rank()), mpl::SumOp{});
  const double want = static_cast<double>(p.size() * (p.size() - 1)) / 2.0;
  if (sum != want) g_bad_results.fetch_add(1);
}

/// Communication-heavy mixed-population bodies, all self-validating.
void collective_job(mpl::Process& p) {
  const auto all = p.allgather_value(p.rank());
  bool ok = static_cast<int>(all.size()) == p.size();
  for (int r = 0; ok && r < p.size(); ++r) {
    ok = all[static_cast<std::size_t>(r)] == r;
  }
  if (!ok) g_bad_results.fetch_add(1);
}

void ring_job(mpl::Process& p, int rounds) {
  double acc = static_cast<double>(p.rank());
  for (int i = 0; i < rounds; ++i) {
    const int right = (p.rank() + 1) % p.size();
    const int left = (p.rank() - 1 + p.size()) % p.size();
    const std::vector<double> out{acc};
    const auto in = p.sendrecv(right, 21, std::span<const double>(out), left, 21);
    acc += in.front();
  }
  const double total = p.allreduce(acc, mpl::SumOp{});
  if (total != p.allreduce(acc, mpl::SumOp{})) g_bad_results.fetch_add(1);
}

/// Small bnb probe: full binary tree, minimized leaf value known in closed
/// form via solve_sequential (computed once).
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
    return {Node{n.depth + 1, n.value - 1.0},
            Node{n.depth + 1, n.value - 0.25}};
  }
};

double probe_bnb_reference() {
  static const double ref = [] {
    ProbeBnbSpec spec;
    return bnb::solve_sequential(spec, ProbeBnbSpec::Node{});
  }();
  return ref;
}

/// Small Poisson solve through the scheduler-routed app driver: Laplace
/// problem with a harmonic boundary, so the solver must do real iterations.
void poisson_probe(mpl::Scheduler& sched, int np, mpl::Priority pri) {
  app::PoissonProblem prob;
  prob.nx = 16;
  prob.ny = 16;
  prob.tolerance = 1e-3;
  prob.g = [](double x, double y) { return x + y; };
  const auto result = app::poisson_spmd(prob, sched, np, pri);
  if (result.iterations == 0 || result.final_diffmax > prob.tolerance) {
    g_bad_results.fetch_add(1);
  }
}

/// Pipeline burst through the scheduler-routed driver (3 ranks:
/// source | stage | sink).
void pipeline_burst(mpl::Scheduler& sched, mpl::Priority pri) {
  long total = 0;
  long next = 0;
  auto plan = pipeline::source([next]() mutable -> std::optional<long> {
                return next < 64 ? std::optional<long>(next++) : std::nullopt;
              }) |
              pipeline::stage([](long v) { return 2 * v + 1; }) |
              pipeline::sink([&total](long v) { total += v; });
  (void)plan.run_engine(sched, pipeline::Config{}, 0, pri);
  if (total != 64L * 64L) g_bad_results.fetch_add(1);  // sum of 2v+1, v<64
}

/// One draw from the mixed job population: (np, priority, body) over the
/// job types the serving layer is meant to interleave — small collectives,
/// ring exchanges, latency-bound service calls, and the scheduler-routed
/// archetype drivers (Poisson solves, bnb probes, pipeline bursts).
void submit_mixed_job(mpl::Scheduler& sched, std::uint64_t draw) {
  const int kind = static_cast<int>(draw % 6);
  const int np = 1 + static_cast<int>((draw / 7) % 4);
  const auto pri = static_cast<mpl::Priority>((draw / 31) % 3);
  switch (kind) {
    case 0:
      sched.run(np, [](mpl::Process& p) { collective_job(p); }, pri);
      break;
    case 1:
      sched.run(np, [](mpl::Process& p) { ring_job(p, 4); }, pri);
      break;
    case 2:
      sched.run(
          std::min(np, 2), [](mpl::Process& p) { slow_service_job(p, 1); }, pri);
      break;
    case 3:
      poisson_probe(sched, np, pri);
      break;
    case 4: {
      ProbeBnbSpec spec;
      const double best =
          bnb::solve_engine(spec, sched, ProbeBnbSpec::Node{}, np, 16, 2,
                            nullptr, pri);
      if (best != probe_bnb_reference()) g_bad_results.fetch_add(1);
      break;
    }
    default:
      pipeline_burst(sched, pri);
      break;
  }
}

struct LatencyStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

LatencyStats percentiles(std::vector<double>& latencies_ms) {
  LatencyStats out;
  if (latencies_ms.empty()) return out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  out.p50_ms = at(0.50);
  out.p99_ms = at(0.99);
  out.p999_ms = at(0.999);
  return out;
}

}  // namespace

int main() {
  bench::print_header("Ablation: space-sharing job scheduler",
                      "concurrent vs serialized narrow jobs, plus closed- and "
                      "open-loop latency-SLO load over a mixed job stream");

  const bool smoke = microbench::smoke_mode();
  microbench::Reporter reporter("serving");
  auto engine = std::make_shared<mpl::Engine>(8);
  mpl::Scheduler sched(engine, mpl::SchedulerConfig{.queue_depth = 64});

  // --- A/B: two np=4 jobs, serialized vs space-shared ----------------------
  const int ab_rounds = smoke ? 5 : 20;
  const int reps = smoke ? 2 : 3;
  const double t_serialized = microbench::time_best_of(reps, [&] {
    sched.run(4, [&](mpl::Process& p) { slow_service_job(p, ab_rounds); });
    sched.run(4, [&](mpl::Process& p) { slow_service_job(p, ab_rounds); });
  });
  const double t_concurrent = microbench::time_best_of(reps, [&] {
    std::jthread a([&] {
      sched.run(4, [&](mpl::Process& p) { slow_service_job(p, ab_rounds); });
    });
    std::jthread b([&] {
      sched.run(4, [&](mpl::Process& p) { slow_service_job(p, ab_rounds); });
    });
  });
  const double ab_speedup = t_serialized / t_concurrent;
  std::printf("\nA/B, 2 x np=4 jobs (%d x 1 ms service rounds) on width 8:\n"
              "  serialized %.4f s   concurrent %.4f s   %.2fx\n",
              ab_rounds, t_serialized, t_concurrent, ab_speedup);
  microbench::Result rab{"serving/ab_concurrent_vs_serialized", {}};
  rab.set("np", 4)
      .set("rounds", ab_rounds)
      .set("serialized_seconds", t_serialized)
      .set("concurrent_seconds", t_concurrent)
      .set("speedup_concurrent_vs_serialized", ab_speedup);
  reporter.add(std::move(rab));

  // --- closed loop: N submitters, back-to-back mixed jobs ------------------
  const int closed_threads = 8;
  const int closed_jobs_per_thread = smoke ? 12 : 60;
  std::vector<std::vector<double>> closed_lat(
      static_cast<std::size_t>(closed_threads));
  const auto closed_t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(closed_threads));
    for (int t = 0; t < closed_threads; ++t) {
      workers.emplace_back([&, t] {
        auto& lat = closed_lat[static_cast<std::size_t>(t)];
        lat.reserve(static_cast<std::size_t>(closed_jobs_per_thread));
        for (int j = 0; j < closed_jobs_per_thread; ++j) {
          const auto start = Clock::now();
          submit_mixed_job(sched,
                           static_cast<std::uint64_t>(t * 7919 + j * 131));
          lat.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count());
        }
      });
    }
  }
  const double closed_seconds =
      std::chrono::duration<double>(Clock::now() - closed_t0).count();
  std::vector<double> closed_all;
  for (auto& v : closed_lat) closed_all.insert(closed_all.end(), v.begin(), v.end());
  const double closed_throughput =
      static_cast<double>(closed_all.size()) / closed_seconds;
  const LatencyStats closed_pct = percentiles(closed_all);
  std::printf("\nclosed loop (%d threads x %d mixed jobs):\n"
              "  %.0f jobs/s   p50 %.2f ms   p99 %.2f ms   p99.9 %.2f ms\n",
              closed_threads, closed_jobs_per_thread, closed_throughput,
              closed_pct.p50_ms, closed_pct.p99_ms, closed_pct.p999_ms);
  microbench::Result rcl{"serving/closed_loop", {}};
  rcl.set("threads", closed_threads)
      .set("jobs", static_cast<double>(closed_all.size()))
      .set("seconds", closed_seconds)
      .set("jobs_per_sec", closed_throughput)
      .set("p50_ms", closed_pct.p50_ms)
      .set("p99_ms", closed_pct.p99_ms)
      .set("p999_ms", closed_pct.p999_ms);
  reporter.add(std::move(rcl));

  // --- open loop: paced arrivals, latency measured from scheduled arrival --
  const double offered_rate = smoke ? 100.0 : 200.0;  // jobs/s
  const int open_jobs = smoke ? 60 : 400;
  const int open_workers = 8;
  std::atomic<int> next_arrival{0};
  std::vector<std::vector<double>> open_lat(
      static_cast<std::size_t>(open_workers));
  const auto open_t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(open_workers));
    for (int t = 0; t < open_workers; ++t) {
      workers.emplace_back([&, t] {
        auto& lat = open_lat[static_cast<std::size_t>(t)];
        for (;;) {
          const int i = next_arrival.fetch_add(1);
          if (i >= open_jobs) return;
          const auto arrival =
              open_t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / offered_rate));
          std::this_thread::sleep_until(arrival);
          submit_mixed_job(sched, static_cast<std::uint64_t>(i * 2654435761ULL));
          lat.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - arrival)
                  .count());
        }
      });
    }
  }
  const double open_seconds =
      std::chrono::duration<double>(Clock::now() - open_t0).count();
  std::vector<double> open_all;
  for (auto& v : open_lat) open_all.insert(open_all.end(), v.begin(), v.end());
  const double open_throughput =
      static_cast<double>(open_all.size()) / open_seconds;
  const LatencyStats open_pct = percentiles(open_all);
  std::printf("\nopen loop (%.0f jobs/s offered, %d jobs, %d workers):\n"
              "  %.0f jobs/s served   p50 %.2f ms   p99 %.2f ms   p99.9 %.2f ms\n",
              offered_rate, open_jobs, open_workers, open_throughput,
              open_pct.p50_ms, open_pct.p99_ms, open_pct.p999_ms);
  microbench::Result rop{"serving/open_loop", {}};
  rop.set("offered_jobs_per_sec", offered_rate)
      .set("jobs", static_cast<double>(open_all.size()))
      .set("seconds", open_seconds)
      .set("served_jobs_per_sec", open_throughput)
      .set("p50_ms", open_pct.p50_ms)
      .set("p99_ms", open_pct.p99_ms)
      .set("p999_ms", open_pct.p999_ms);
  reporter.add(std::move(rop));

  const auto st = sched.stats();
  microbench::Result summary{"serving/summary", {}};
  summary.set("ab_speedup_concurrent_vs_serialized", ab_speedup)
      .set("jobs_submitted", static_cast<double>(st.submitted))
      .set("queue_high_water", static_cast<double>(st.queue_high_water))
      .set("concurrency_high_water", static_cast<double>(st.concurrency_high_water))
      .set("smoke", smoke ? 1.0 : 0.0);
  reporter.add(std::move(summary));
  reporter.write_json("BENCH_serving.json");

  std::printf("\nShape verdicts:\n");
  bool ok = true;
  ok &= bench::verdict("every job's collective results validated",
                       g_bad_results.load() == 0);
  ok &= bench::verdict("scheduler admitted jobs concurrently (high water >= 2)",
                       st.concurrency_high_water >= 2);
  const bool ab_wins = bench::verdict(
      "two concurrent np=4 jobs beat serialized submission on width 8",
      ab_speedup > 1.0);
  if (!smoke) ok &= ab_wins;
  return ok ? 0 : 1;
}
