// Tests for the typed composition layer (core/compose.hpp): driver
// equivalence of composed graphs (sequential vs threaded vs scheduler-
// backed) including hosted SPMD stages at np in {1,2,4,8}, ordered and
// unordered farms hosting engine jobs, shape rejection with typed
// GraphShapeError at graph-build time, graph-anchored deadline plumbing
// (JobOptions::anchor), and failure isolation — a failing hosted job fails
// only its graph run, never the scheduler serving it.
//
// PPA_COMPOSE_SMOKE=1 (the TSan CI leg) shrinks the battery: np in {1,2}
// and fewer stream items, same assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <complex>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "core/compose.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "support/ndarray.hpp"

namespace {

using namespace ppa;
using algo::Complex;

bool smoke_mode() {
  const char* v = std::getenv("PPA_COMPOSE_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<int> battery_nps() {
  if (smoke_mode()) return {1, 2};
  return {1, 2, 4, 8};
}

long battery_items() { return smoke_mode() ? 2 : 3; }

/// A counting source: emits 0..n-1.
auto counting_source(long n) {
  long next = 0;
  return compose::source([next, n]() mutable -> std::optional<long> {
    return next < n ? std::optional<long>(next++) : std::nullopt;
  });
}

std::shared_ptr<mpl::Scheduler> make_scheduler(int width) {
  return std::make_shared<mpl::Scheduler>(std::make_shared<mpl::Engine>(width));
}

// ---------------------------------------------------------- plain graphs --

TEST(Compose, PlainGraphMatchesPipelineSemantics) {
  const auto make = [](std::vector<long>& out) {
    return counting_source(200) |
           compose::stage([](long v) { return v * 3; }) |
           compose::farm(3, [] { return [](long v) { return v + 1; }; },
                         compose::ordered) |
           compose::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out;
  auto g1 = make(seq_out);
  g1.run_sequential();
  auto g2 = make(thr_out);
  compose::Config cfg;
  cfg.queue_capacity = 16;
  cfg.batch = 4;
  (void)g2.run_threaded(cfg);
  ASSERT_EQ(seq_out.size(), 200u);
  EXPECT_EQ(thr_out, seq_out);
}

TEST(Compose, SourceDirectlyIntoSink) {
  long sum = 0;
  auto g = counting_source(100) | compose::sink([&sum](long v) { sum += v; });
  g.run_sequential();
  EXPECT_EQ(sum, 4950);
}

TEST(Compose, NodeMetadataAndLabels) {
  auto g = counting_source(1) |
           compose::stage([](long v) { return v; }) |
           compose::engine_job(4, [](mpl::Process&, const long& v) { return v; }) |
           compose::engine_farm(3, 2,
                                [](mpl::Process&, const long& v) { return v; },
                                compose::unordered) |
           compose::sink([](long) {});
  const auto& meta = g.node_meta();
  ASSERT_EQ(meta.size(), 5u);
  EXPECT_EQ(g.hosted_width(), 4);
  EXPECT_EQ(meta[2].hosted_np, 4);
  EXPECT_EQ(meta[3].hosted_np, 2);
  EXPECT_EQ(meta[3].replicas, 3);
  EXPECT_EQ(g.node_label(0), "source");
  EXPECT_EQ(g.node_label(1), "stage#1");
  EXPECT_EQ(g.node_label(2), "hosted#2 (np=4)");
  EXPECT_EQ(g.node_label(3), "hosted-farm#3 (unordered, np=2)");
  EXPECT_EQ(g.node_label(4), "sink");
}

// --------------------------------------------------- hosted-stage drivers --

/// Hosted body: np-wide sum of (item + rank) via allreduce — exercises real
/// collective communication inside the hosted job; rank 0's return is the
/// closed form np*v + np*(np-1)/2.
long hosted_ranksum(mpl::Process& p, const long& v) {
  const long mine = v + p.rank();
  return p.allreduce(mine, [](long a, long b) { return a + b; });
}

TEST(Compose, HostedStageRunsNpWideOnEveryDriver) {
  for (const int np : battery_nps()) {
    const long n = 20;
    const auto expect_item = [np](long v) {
      return np * v + static_cast<long>(np) * (np - 1) / 2;
    };
    const auto make = [&](std::vector<long>& out) {
      return counting_source(n) | compose::engine_job(np, hosted_ranksum) |
             compose::sink([&out](long v) { out.push_back(v); });
    };
    std::vector<long> seq_out, thr_out, sched_out;
    auto g1 = make(seq_out);
    g1.run_sequential();
    auto g2 = make(thr_out);
    (void)g2.run_threaded();
    auto sched = make_scheduler(std::max(np, 2));
    auto g3 = make(sched_out);
    (void)g3.run_scheduler(*sched);
    ASSERT_EQ(seq_out.size(), static_cast<std::size_t>(n)) << "np=" << np;
    for (long v = 0; v < n; ++v) {
      EXPECT_EQ(seq_out[static_cast<std::size_t>(v)], expect_item(v));
    }
    EXPECT_EQ(thr_out, seq_out) << "np=" << np;
    EXPECT_EQ(sched_out, seq_out) << "np=" << np;
  }
}

TEST(Compose, OrderedEngineFarmKeepsSequenceEveryDriver) {
  const int np = smoke_mode() ? 2 : 3;
  const long n = 40;
  const auto make = [&](std::vector<long>& out) {
    return counting_source(n) |
           compose::engine_farm(3, np, hosted_ranksum, compose::ordered) |
           compose::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out, sched_out;
  auto g1 = make(seq_out);
  g1.run_sequential();
  auto g2 = make(thr_out);
  (void)g2.run_threaded();
  auto sched = make_scheduler(2 * np);  // two hosted jobs side by side
  auto g3 = make(sched_out);
  (void)g3.run_scheduler(*sched);
  ASSERT_EQ(seq_out.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(thr_out, seq_out);   // ordered farm: exact sequence match
  EXPECT_EQ(sched_out, seq_out);
}

TEST(Compose, UnorderedEngineFarmIsAPermutationEveryDriver) {
  const int np = 2;
  const long n = 30;
  const auto make = [&](std::vector<long>& out) {
    return counting_source(n) |
           compose::engine_farm(4, np, hosted_ranksum, compose::unordered) |
           compose::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out, sched_out;
  auto g1 = make(seq_out);
  g1.run_sequential();
  auto g2 = make(thr_out);
  (void)g2.run_threaded();
  auto sched = make_scheduler(4);
  auto g3 = make(sched_out);
  (void)g3.run_scheduler(*sched);
  std::sort(seq_out.begin(), seq_out.end());
  std::sort(thr_out.begin(), thr_out.end());
  std::sort(sched_out.begin(), sched_out.end());
  EXPECT_EQ(thr_out, seq_out);   // same multiset, any order
  EXPECT_EQ(sched_out, seq_out);
}

// ------------------------------------------- flagship: ingest→poisson→fft --

/// One ingest item of the flagship graph: a Poisson problem whose interior
/// (16x16, a power of two) is then spectrally analyzed. nx=ny=18 keeps the
/// solves fast while still exercising the real solver.
app::PoissonProblem flagship_problem(long idx) {
  app::PoissonProblem prob;
  prob.nx = 18;
  prob.ny = 18;
  prob.tolerance = 1e-3;
  const double a = 1.0 + 0.25 * static_cast<double>(idx);
  prob.f = [a](double x, double y) { return a * (x - y); };
  prob.g = [a](double x, double y) { return a * x * y; };
  return prob;
}

/// Interior of the converged field as a complex grid (fft-ready).
Array2D<Complex> interior_as_complex(const Array2D<double>& u) {
  Array2D<Complex> a(u.rows() - 2, u.cols() - 2);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = Complex(u(i + 1, j + 1), 0.0);
    }
  }
  return a;
}

/// The hand-wired sequential reference: poisson_v1 + fft2d_v1, no graph.
std::vector<Array2D<Complex>> flagship_reference(long items) {
  std::vector<Array2D<Complex>> out;
  for (long i = 0; i < items; ++i) {
    auto solved = app::poisson_v1(flagship_problem(i));
    auto spectrum = interior_as_complex(solved.u);
    app::fft2d_v1(spectrum, seq);
    out.push_back(std::move(spectrum));
  }
  return out;
}

TEST(Compose, FlagshipGraphMatchesHandWiredBitwiseOnEveryDriver) {
  // The acceptance bar: the composed ingest→poisson→fft graph produces
  // bitwise-identical results to the hand-wired sequential reference on
  // every driver and every hosted width. Both hosted solves are
  // np-invariant (pinned by the poisson/fft2d app tests), which is what
  // makes this equality exact rather than approximate.
  const long items = battery_items();
  const auto reference = flagship_reference(items);
  for (const int np : battery_nps()) {
    const auto make = [&](std::vector<Array2D<Complex>>& out) {
      return counting_source(items) |
             compose::stage(flagship_problem) |
             app::poisson_component(np) |
             compose::stage([](const app::PoissonResult& r) {
               return interior_as_complex(r.u);
             }) |
             app::fft2d_component(np) |
             compose::sink([&out](Array2D<Complex> s) {
               out.push_back(std::move(s));
             });
    };
    std::vector<Array2D<Complex>> seq_out, thr_out, sched_out;
    auto g1 = make(seq_out);
    g1.run_sequential();
    auto g2 = make(thr_out);
    (void)g2.run_threaded();
    auto sched = make_scheduler(std::max(np, 2));
    auto g3 = make(sched_out);
    (void)g3.run_scheduler(*sched);
    ASSERT_EQ(seq_out.size(), reference.size()) << "np=" << np;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(seq_out[i], reference[i]) << "np=" << np << " item " << i;
      EXPECT_EQ(thr_out[i], reference[i]) << "np=" << np << " item " << i;
      EXPECT_EQ(sched_out[i], reference[i]) << "np=" << np << " item " << i;
    }
  }
}

// --------------------------------------------------------- shape checking --

TEST(Compose, HostedNodeRejectsNonPositiveWidthAtCombinatorCall) {
  const auto body = [](mpl::Process&, const long& v) { return v; };
  try {
    (void)compose::engine_job(0, body);
    ADD_FAILURE() << "engine_job(0) must throw";
  } catch (const GraphShapeError& e) {
    EXPECT_EQ(e.required(), 1);
    EXPECT_EQ(e.available(), 0);
  }
  EXPECT_THROW((void)compose::engine_farm(2, -1, body, compose::unordered),
               GraphShapeError);
}

TEST(Compose, UnorderedIntoOrderedRejectedAtGraphBuild) {
  // Composed graphs enforce the farm-order contract at build time on every
  // driver (the SPMD pipeline driver would reject the same shape at run
  // time): the order an ordered farm would restore after an unordered one
  // is already the nondeterministic completion order.
  int caught = 0;
  try {
    auto g = counting_source(10) |
             compose::farm(2, [] { return [](long v) { return v; }; },
                           compose::unordered) |
             compose::farm(2, [] { return [](long v) { return v; }; },
                           compose::ordered) |
             compose::sink([](long) {});
    (void)g;
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "farm#2 (ordered)");
  }
  EXPECT_EQ(caught, 1);
}

TEST(Compose, OverWideHostedJobRejectedBeforeAnythingRuns) {
  long pulled = 0;
  auto g = compose::source([&pulled]() -> std::optional<long> {
             ++pulled;
             return std::nullopt;
           }) |
           compose::engine_job(16, hosted_ranksum) |
           compose::sink([](long) {});
  auto sched = make_scheduler(4);
  int caught = 0;
  try {
    (void)g.run_scheduler(*sched);
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "hosted#1 (np=16)");
    EXPECT_EQ(e.required(), 16);
    EXPECT_EQ(e.available(), 4);
  }
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(pulled, 0);  // rejected before the source was touched
  // The same graph still runs on the inline drivers (spmd_run hosts any
  // width cold) and on a wide-enough scheduler.
  g.run_sequential();
  EXPECT_EQ(pulled, 1);
}

// --------------------------------------------------- failure propagation --

TEST(Compose, FailingHostedJobFailsOnlyItsGraphRun) {
  auto sched = make_scheduler(4);
  const auto make_failing = [&]() {
    return counting_source(10) |
           compose::engine_job(2,
                               [](mpl::Process& p, const long& v) {
                                 if (v == 3 && p.rank() == 0) {
                                   throw std::runtime_error("hosted body failure");
                                 }
                                 return p.allreduce(
                                     v, [](long a, long b) { return a + b; });
                               }) |
           compose::sink([](long) {});
  };
  for (int round = 0; round < 2; ++round) {
    auto g = make_failing();
    int caught = 0;
    try {
      (void)g.run_scheduler(*sched);
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_STREQ(e.what(), "hosted body failure");
    }
    EXPECT_EQ(caught, 1) << "round " << round;
  }
  // The scheduler (and its engine) survived both failed graph runs: a
  // fresh graph and a plain job both complete.
  std::vector<long> out;
  auto ok = counting_source(5) | compose::engine_job(2, hosted_ranksum) |
            compose::sink([&out](long v) { out.push_back(v); });
  (void)ok.run_scheduler(*sched);
  EXPECT_EQ(out.size(), 5u);
  const auto stats = sched->stats();
  EXPECT_GT(stats.completed, 0u);
}

TEST(Compose, SchedulerRunReleasesOrderedFarmWaitsOnFailure) {
  // The threaded-cancellation shape through run_scheduler: an ordered
  // farm(4) behind two-item channels, one item per batch, whose replica
  // holding item 0 turns slow, and a sink that throws mid-stream. The run
  // rethrows once and returns, and the scheduler keeps serving.
  struct SlowAfterFirstItem {
    bool slow = false;
    long operator()(long v) {
      if (v == 0) slow = true;
      if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return v;
    }
  };
  auto sched = make_scheduler(2);
  auto g = counting_source(1000) |
           compose::farm(4, [] { return SlowAfterFirstItem{}; }, compose::ordered) |
           compose::sink([](long v) {
             if (v == 40) throw std::runtime_error("sink failure");
           });
  int caught = 0;
  try {
    (void)g.run_scheduler(*sched, compose::Config{.queue_capacity = 2, .batch = 1});
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink failure");
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  std::vector<long> out;
  auto ok = counting_source(5) | compose::engine_job(2, hosted_ranksum) |
            compose::sink([&out](long v) { out.push_back(v); });
  (void)ok.run_scheduler(*sched);
  EXPECT_EQ(out.size(), 5u);
}

TEST(Compose, FailingHostedJobFailsInlineDriversToo) {
  const auto make = [] {
    return counting_source(10) |
           compose::engine_job(2,
                               [](mpl::Process& p, const long& v) {
                                 if (v == 4 && p.rank() == 1) {
                                   throw std::runtime_error("inline hosted failure");
                                 }
                                 return p.allreduce(
                                     v, [](long a, long b) { return a + b; });
                               }) |
           compose::sink([](long) {});
  };
  auto g1 = make();
  EXPECT_THROW(g1.run_sequential(), std::runtime_error);
  auto g2 = make();
  EXPECT_THROW((void)g2.run_threaded(), std::runtime_error);
}

// ------------------------------------------------------ deadline plumbing --

TEST(Compose, AnchoredDeadlinePlumbing) {
  // JobOptions::anchor moves the start of the deadline clock: an anchor
  // already past its budget must make submission throw JobDeadlineExceeded
  // without admitting (or running) the job — deterministically.
  auto sched = make_scheduler(2);
  std::atomic<bool> ran{false};  // written by both ranks of the job
  mpl::JobOptions options;
  options.deadline = std::chrono::milliseconds(500);
  options.anchor = std::chrono::steady_clock::now() - std::chrono::seconds(2);
  EXPECT_THROW(sched->run_job(
                   2, [&ran](mpl::Process&) { ran = true; },
                   mpl::Priority::kNormal, options),
               mpl::JobDeadlineExceeded);
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(sched->stats().expired_queued, 1u);
  // Default anchor ({}): the clock starts at submission, so the same
  // budget admits and completes a quick job.
  mpl::JobOptions fresh;
  fresh.deadline = std::chrono::seconds(30);
  (void)sched->run_job(2, [&ran](mpl::Process&) { ran = true; },
                       mpl::Priority::kNormal, fresh);
  EXPECT_TRUE(ran.load());
}

TEST(Compose, GraphDeadlineIsSharedAcrossHostedJobs) {
  // run_scheduler anchors the graph's JobOptions once at run start, so the
  // budget is shared across hosted jobs: each item's job sleeps well under
  // the 50ms budget (a per-submission clock would admit and finish every
  // one), but their sum overruns it, so a later job is torn down mid-run
  // or refused pre-admission — either way JobDeadlineExceeded.
  auto sched = make_scheduler(2);
  mpl::JobOptions options;
  options.deadline = std::chrono::milliseconds(50);
  auto g = counting_source(4) |
           compose::engine_job(2,
                               [](mpl::Process& p, const long& v) {
                                 if (p.rank() == 0) {
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(30));
                                 }
                                 p.barrier();
                                 return v;
                               }) |
           compose::sink([](long) {});
  EXPECT_THROW((void)g.run_scheduler(*sched, compose::Config{},
                                     mpl::Priority::kNormal, options),
               mpl::JobDeadlineExceeded);
}

}  // namespace
