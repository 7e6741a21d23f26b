// compose_stream — the flagship composed graph on the scheduler driver:
//
//   source | make problem | poisson_component(2) | interior
//          | fft2d_component(2) | sink
//
// streaming seeded 66x66 Poisson problems into 64x64 spectra. The two
// np=2 hosted stages space-share the width-4 engine, so this is the one
// workload where stage overlap can show; it exercises the pipeline
// plumbing, the scheduler handoff, the row/column all-to-all and the FFT.
// Every spectrum must equal the hand-wired poisson_v1 + fft2d_v1 result
// bitwise. An op is one item, from the source's pull to the sink.
//
// The traced graph hosts the same two bodies in stages that submit to the
// scheduler themselves — what engine_job does under run_scheduler — so the
// bench can stamp each submit and return.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "apps/fft2d/fft2d.hpp"
#include "core/compose.hpp"
#include "harness.hpp"

namespace ppa_bench {
namespace {

using namespace ppa;
using algo::Complex;

constexpr int kHostNp = 2;

/// Items cross each queue one at a time, at most four deep, so an item's
/// latency is a few stage times rather than a batch's.
compose::Config graph_config() {
  compose::Config cfg;
  cfg.queue_capacity = 4;
  cfg.batch = 1;
  return cfg;
}

/// Interior of the converged field as a complex grid (fft-ready).
Array2D<Complex> interior_as_complex(const Array2D<double>& u) {
  Array2D<Complex> a(u.rows() - 2, u.cols() - 2);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = Complex(u(i + 1, j + 1), 0.0);
  }
  return a;
}

/// A source handing out pool indices until `end`, stamping each pull.
auto timed_source(Clock::time_point end, std::size_t limit,
                  std::vector<Clock::time_point>& pulled) {
  return compose::source([end, limit, &pulled]() -> std::optional<std::size_t> {
    const auto now = Clock::now();
    if (now >= end || pulled.size() >= limit) return std::nullopt;
    pulled.push_back(now);
    return pulled.size() - 1;
  });
}

/// Each item's pull and sink times once the graph has run: items leave the
/// ordered graph in pull order, and both vectors are complete.
OpLog item_log(const std::vector<Clock::time_point>& pulled,
               const std::vector<Clock::time_point>& sunk) {
  OpLog items;
  for (std::size_t k = 0; k < sunk.size(); ++k) items.add(pulled[k], sunk[k]);
  return items;
}

}  // namespace

Outcome run_compose_stream(const RunOptions& opt, const StealMonitor& steal,
                           SpanLog* log) {
  Outcome out;
  const std::size_t n = opt.check ? 18 : 66;
  const std::size_t pool_size = opt.check ? 2 : 16;

  Rng rng(opt.seed);
  std::vector<app::PoissonProblem> pool;
  std::vector<Array2D<Complex>> oracle;
  std::vector<double> seq_s, seq_iters;
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(seeded_poisson(rng, n, 1e-5));
    const auto t0 = Clock::now();
    const auto solved = app::poisson_v1(pool.back());
    seq_s.push_back(seconds_between(t0, Clock::now()));
    seq_iters.push_back(static_cast<double>(solved.iterations));
    auto spectrum = interior_as_complex(solved.u);
    app::fft2d_v1(spectrum, seq);
    oracle.push_back(std::move(spectrum));
  }

  // One run of the flagship graph over items pulled until `end` (or
  // `limit` items).
  const auto run_graph = [&](mpl::Scheduler& sched, Clock::time_point end,
                             std::size_t limit) {
    std::vector<Clock::time_point> pulled, sunk;
    auto g = timed_source(end, limit, pulled) |
             compose::stage([&](std::size_t k) { return pool[k % pool_size]; }) |
             app::poisson_component(kHostNp) |
             compose::stage([](const app::PoissonResult& r) {
               return interior_as_complex(r.u);
             }) |
             app::fft2d_component(kHostNp) |
             compose::sink([&](const Array2D<Complex>& s) {
               out.checked("compose_stream item", [&] {
                 return bitwise_equal(s, oracle[sunk.size() % pool_size]);
               });
               sunk.push_back(Clock::now());
             });
    out.checked("compose_stream graph", [&] {
      (void)g.run_scheduler(sched, graph_config());
      return true;
    });
    return item_log(pulled, sunk);
  };

  SetupTimer setup(opt, steal, [&](Serving& s) {
    (void)run_graph(*s.sched, Clock::time_point::max(), 1);
  });
  auto serving = setup.before();
  mpl::Scheduler& sched = *serving->sched;
  const auto deadline = [](double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  };

  if (!opt.traced) {
    const auto phase_start = Clock::now();
    const auto items = run_graph(sched, deadline(opt.seconds), SIZE_MAX);
    emit_end_to_end(out, steal, phase_start, items);
    out.add("setup_s", setup.after(std::move(serving)), "s");
    return out;
  }

  // Traced: untraced and traced graph runs alternate.
  LayerSamples layers;
  std::vector<double> lat_u, lat_t, handoff, poisson_body, fft_body, iterations;
  double busy = 0.0, wall = 0.0;
  std::size_t queue_high_water = 0;
  const double phase_s = opt.seconds / (2 * kTracedRounds);
  for (int round = 0; round < kTracedRounds; ++round) {
    const auto u = run_graph(sched, deadline(phase_s), SIZE_MAX).seconds();
    lat_u.insert(lat_u.end(), u.begin(), u.end());

    // Each vector below is appended by exactly one pipeline thread and
    // read only after the run has joined them all.
    std::vector<Clock::time_point> pulled, emit_p, emit_f, sunk;
    std::vector<JobStamps> pjobs, fjobs;
    const auto t0 = Clock::now();
    auto g = timed_source(deadline(phase_s), SIZE_MAX, pulled) |
             compose::stage([&](std::size_t k) {
               auto prob = pool[k % pool_size];
               emit_p.push_back(Clock::now());
               return prob;
             }) |
             compose::stage([&](const app::PoissonProblem& prob) {
               const auto pgrid = mpl::CartGrid2D::near_square(kHostNp);
               app::PoissonResult result;
               pjobs.push_back(run_stamped(
                   sched, kHostNp,
                   [&](mpl::Process& p) {
                     auto local = app::poisson_process(p, pgrid, prob);
                     if (p.rank() == 0) result = std::move(local);
                   },
                   log, "poisson", pjobs.size()));
               iterations.push_back(static_cast<double>(result.iterations));
               return result;
             }) |
             compose::stage([&](const app::PoissonResult& r) {
               auto grid = interior_as_complex(r.u);
               emit_f.push_back(Clock::now());
               return grid;
             }) |
             compose::stage([&](const Array2D<Complex>& in) {
               Array2D<Complex> spectrum;
               fjobs.push_back(run_stamped(
                   sched, kHostNp,
                   [&](mpl::Process& p) {
                     auto local = app::fft2d_body(p, in);
                     if (p.rank() == 0) spectrum = std::move(local);
                   },
                   log, "fft2d", fjobs.size()));
               return spectrum;
             }) |
             compose::sink([&](const Array2D<Complex>& s) {
               out.checked("compose_stream traced item", [&] {
                 return bitwise_equal(s, oracle[sunk.size() % pool_size]);
               });
               sunk.push_back(Clock::now());
             });
    out.checked("compose_stream traced graph", [&] {
      const auto stats = g.run_threaded(graph_config());
      for (const auto& q : stats.queues) {
        queue_high_water = std::max(queue_high_water, q.high_water);
      }
      return true;
    });
    wall += seconds_between(t0, Clock::now());
    const auto t = item_log(pulled, sunk).seconds();
    lat_t.insert(lat_t.end(), t.begin(), t.end());
    for (std::size_t k = 0; k < sunk.size(); ++k) {
      // An op is one item: two jobs to admit, and a service time that is
      // both hosted bodies'. (A median over the two kinds of job pooled
      // would fall between their modes, 30 ms and 0.3 ms.)
      for (const JobStamps* js : {&pjobs[k], &fjobs[k]}) {
        layers.admit.push_back(js->admit_s());
        layers.dispatch.push_back(js->dispatch_s());
        layers.join.push_back(js->join_s());
      }
      layers.service.push_back(pjobs[k].service_s() + fjobs[k].service_s());
      layers.add_counts(pjobs[k].trace);
      layers.add_counts(fjobs[k].trace);
      ++layers.ops;
      handoff.push_back(seconds_between(emit_p[k], pjobs[k].entry[0]));
      handoff.push_back(seconds_between(emit_f[k], fjobs[k].entry[0]));
      poisson_body.push_back(pjobs[k].body_s());
      fft_body.push_back(fjobs[k].body_s());
      busy += pjobs[k].body_s() + fjobs[k].body_s();
    }
  }

  layers.emit(out, sched.stats());
  emit_mesh_scaling(out, kHostNp, iterations, poisson_body, seq_iters, seq_s);
  out.add("trace.overhead", median(lat_t) / median(lat_u), "ratio");
  out.add("apps.poisson.hosted_s", median(poisson_body), "s");
  out.add("apps.fft2d.hosted_s", median(fft_body), "s");
  out.add("core.compose.handoff_s", median(handoff), "s");
  out.add("core.compose.overlap", busy / wall, "ratio");
  out.add("core.pipeline.queue_high_water", static_cast<double>(queue_high_water),
          "count");
  return out;
}

}  // namespace ppa_bench
