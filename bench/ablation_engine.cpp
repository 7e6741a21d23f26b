// Ablation bench for the persistent SPMD engine (mpl/engine.hpp): cold
// spawn-per-run (spmd_run_cold: fresh World + N fresh threads per call)
// vs a warm engine (rank threads spawned once, each call one job epoch),
// across job sizes x np, plus two serving-shaped scenarios:
//
//   traffic  — a stream of many small jobs (the north-star shape: per-job
//              runtime comparable to process-creation cost, where
//              amortizing the skeleton is the whole game), and
//   poisson  — a stream of small Poisson solves through the ported
//              meshspectral driver (poisson_spmd through a Scheduler over
//              an explicit engine).
//
// Results are written to BENCH_engine.json for cross-PR comparison.
// Correctness (identical job results cold vs warm) always gates the exit
// code; the warm-wins-on-small-jobs verdict gates it only in full mode.
// PPA_BENCH_SMOKE=1 selects a reduced configuration.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/poisson/poisson.hpp"
#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"

namespace {

/// One SPMD job: `iters` rounds of neighbor sendrecv + allreduce — the
/// communication mix of a mesh-ish inner loop, scaled by job size.
double job_body(ppa::mpl::Process& p, int iters) {
  double acc = static_cast<double>(p.rank());
  for (int i = 0; i < iters; ++i) {
    const int right = (p.rank() + 1) % p.size();
    const int left = (p.rank() - 1 + p.size()) % p.size();
    const std::vector<double> out{acc};
    const auto in = p.sendrecv(right, 11, std::span<const double>(out), left, 11);
    acc = p.allreduce(acc + in.front(), ppa::mpl::SumOp{});
  }
  return acc;
}

}  // namespace

int main() {
  using namespace ppa;
  bench::print_header("Ablation: persistent SPMD engine",
                      "cold spawn-per-run vs warm engine, job sizes x np, "
                      "plus many-small-jobs traffic and a Poisson stream");

  const bool smoke = microbench::smoke_mode();
  const int reps = smoke ? 2 : 3;
  microbench::Reporter reporter("engine");
  bool results_identical = true;

  const std::vector<int> nps = smoke ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8};
  const std::vector<int> job_sizes =
      smoke ? std::vector<int>{1, 32} : std::vector<int>{1, 16, 128};

  // --- job-size sweep: one job per timed call ------------------------------
  std::printf("\n%4s %6s %12s %12s %10s\n", "np", "iters", "cold (s)", "warm (s)",
              "speedup");
  double log_sum = 0.0;
  int shapes = 0;
  for (const int np : nps) {
    mpl::Engine engine(np);
    for (const int iters : job_sizes) {
      double cold_result = 0.0;
      double warm_result = 0.0;
      const double t_cold = microbench::time_best_of(reps, [&] {
        mpl::spmd_run_cold(np, [&](mpl::Process& p) {
          const double r = job_body(p, iters);
          if (p.rank() == 0) cold_result = r;
        });
      });
      const double t_warm = microbench::time_best_of(reps, [&] {
        engine.run(np, [&](mpl::Process& p) {
          const double r = job_body(p, iters);
          if (p.rank() == 0) warm_result = r;
        });
      });
      if (cold_result != warm_result) results_identical = false;
      const double speedup = t_cold / t_warm;
      std::printf("%4d %6d %12.6f %12.6f %9.2fx\n", np, iters, t_cold, t_warm,
                  speedup);
      microbench::Result r{"engine/job", {}};
      r.set("np", np)
          .set("iters", iters)
          .set("cold_seconds", t_cold)
          .set("warm_seconds", t_warm)
          .set("speedup_warm_vs_cold", speedup);
      reporter.add(std::move(r));
      log_sum += std::log(speedup);
      ++shapes;
    }
  }
  const double sweep_geomean = shapes > 0 ? std::exp(log_sum / shapes) : 1.0;

  // --- traffic: a stream of many small jobs --------------------------------
  const int traffic_np = smoke ? 2 : 4;
  const int traffic_jobs = smoke ? 100 : 400;
  double traffic_cold_sum = 0.0;
  double traffic_warm_sum = 0.0;
  const double t_traffic_cold = microbench::time_best_of(reps, [&] {
    traffic_cold_sum = 0.0;
    for (int j = 0; j < traffic_jobs; ++j) {
      mpl::spmd_run_cold(traffic_np, [&](mpl::Process& p) {
        const double r = job_body(p, 1);
        if (p.rank() == 0) traffic_cold_sum += r;
      });
    }
  });
  mpl::Engine traffic_engine(traffic_np);
  const double t_traffic_warm = microbench::time_best_of(reps, [&] {
    traffic_warm_sum = 0.0;
    for (int j = 0; j < traffic_jobs; ++j) {
      traffic_engine.run(traffic_np, [&](mpl::Process& p) {
        const double r = job_body(p, 1);
        if (p.rank() == 0) traffic_warm_sum += r;
      });
    }
  });
  if (traffic_cold_sum != traffic_warm_sum) results_identical = false;
  const double traffic_speedup = t_traffic_cold / t_traffic_warm;
  std::printf("\ntraffic (%d jobs x np=%d, 1 iter each):\n"
              "  cold %.4f s (%.0f jobs/s)   warm %.4f s (%.0f jobs/s)   %.2fx\n",
              traffic_jobs, traffic_np, t_traffic_cold,
              traffic_jobs / t_traffic_cold, t_traffic_warm,
              traffic_jobs / t_traffic_warm, traffic_speedup);
  microbench::Result rt{"engine/traffic", {}};
  rt.set("np", traffic_np)
      .set("jobs", traffic_jobs)
      .set("cold_seconds", t_traffic_cold)
      .set("warm_seconds", t_traffic_warm)
      .set("cold_jobs_per_sec", traffic_jobs / t_traffic_cold)
      .set("warm_jobs_per_sec", traffic_jobs / t_traffic_warm)
      .set("speedup_warm_vs_cold", traffic_speedup);
  reporter.add(std::move(rt));

  // --- Poisson stream: the ported meshspectral driver ----------------------
  app::PoissonProblem prob;
  prob.nx = prob.ny = smoke ? 24 : 32;
  prob.tolerance = 1e-3;
  const int solves = smoke ? 4 : 10;
  const int poisson_np = smoke ? 2 : 4;
  std::size_t iters_cold = 0;
  std::size_t iters_warm = 0;
  const double t_poisson_cold = microbench::time_best_of(reps, [&] {
    iters_cold = 0;
    for (int s = 0; s < solves; ++s) {
      iters_cold += app::poisson_spmd(prob, poisson_np).iterations;
    }
  });
  mpl::Scheduler poisson_sched(std::make_shared<mpl::Engine>(poisson_np));
  const double t_poisson_warm = microbench::time_best_of(reps, [&] {
    iters_warm = 0;
    for (int s = 0; s < solves; ++s) {
      iters_warm += app::poisson_spmd(prob, poisson_sched).iterations;
    }
  });
  if (iters_cold != iters_warm) results_identical = false;
  const double poisson_speedup = t_poisson_cold / t_poisson_warm;
  std::printf("\npoisson stream (%d solves, %zux%zu, np=%d):\n"
              "  warm-wrapper %.4f s   explicit scheduler %.4f s   %.2fx\n",
              solves, prob.nx, prob.ny, poisson_np, t_poisson_cold,
              t_poisson_warm, poisson_speedup);
  microbench::Result rp{"engine/poisson_stream", {}};
  rp.set("np", poisson_np)
      .set("solves", solves)
      .set("grid", static_cast<double>(prob.nx))
      .set("warm_wrapper_seconds", t_poisson_cold)
      .set("engine_seconds", t_poisson_warm)
      .set("speedup", poisson_speedup);
  reporter.add(std::move(rp));

  microbench::Result summary{"engine/summary", {}};
  summary.set("job_sweep_geomean_speedup", sweep_geomean)
      .set("traffic_speedup", traffic_speedup)
      .set("poisson_stream_speedup", poisson_speedup)
      .set("smoke", smoke ? 1.0 : 0.0);
  reporter.add(std::move(summary));
  reporter.write_json("BENCH_engine.json");

  std::printf("\n  job-sweep geomean warm-vs-cold speedup: %.2fx\n", sweep_geomean);
  std::printf("\nShape verdicts:\n");
  bool ok = true;
  ok &= bench::verdict("cold and warm runs produce identical job results",
                       results_identical);
  const bool warm_wins = bench::verdict(
      "warm engine beats cold spawn-per-run on the many-small-jobs traffic",
      traffic_speedup > 1.0);
  if (!smoke) ok &= warm_wins;
  return ok ? 0 : 1;
}
