// Tests for the streaming pipeline archetype (core/pipeline.hpp): driver
// equivalence (sequential == threaded == SPMD), bounded-queue backpressure,
// ordered vs unordered farm semantics, worker-state flush, first-exception
// propagation, and the two stream workloads (apps/stream/).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/stream/signal_chain.hpp"
#include "apps/stream/text_stats.hpp"
#include "core/pipeline.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa;

/// A counting source: emits 0..n-1.
auto counting_source(long n) {
  long next = 0;
  return pipeline::source([next, n]() mutable -> std::optional<long> {
    return next < n ? std::optional<long>(next++) : std::nullopt;
  });
}

// ------------------------------------------------------- basic semantics --

TEST(Pipeline, SequentialChainsStages) {
  std::vector<long> out;
  auto plan = counting_source(10) | pipeline::stage([](long v) { return v * 3; }) |
              pipeline::stage([](long v) { return v + 1; }) |
              pipeline::sink([&out](long v) { out.push_back(v); });
  plan.run_sequential();
  ASSERT_EQ(out.size(), 10u);
  for (long i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 3 * i + 1);
}

TEST(Pipeline, OptionalStageFilters) {
  std::vector<long> out;
  auto plan = counting_source(20) |
              pipeline::stage([](long v) -> std::optional<long> {
                if (v % 2 != 0) return std::nullopt;
                return v;
              }) |
              pipeline::sink([&out](long v) { out.push_back(v); });
  plan.run_sequential();
  std::vector<long> expected{0, 2, 4, 6, 8, 10, 12, 14, 16, 18};
  EXPECT_EQ(out, expected);
}

TEST(Pipeline, SourceDirectlyIntoSink) {
  long sum = 0;
  auto plan = counting_source(100) | pipeline::sink([&sum](long v) { sum += v; });
  plan.run_sequential();
  EXPECT_EQ(sum, 4950);
  long sum2 = 0;
  auto plan2 = counting_source(100) | pipeline::sink([&sum2](long v) { sum2 += v; });
  (void)plan2.run_threaded();
  EXPECT_EQ(sum2, 4950);
}

TEST(Pipeline, EmptyStreamCompletesEverywhere) {
  int calls = 0;
  const auto make = [&calls] {
    return counting_source(0) |
           pipeline::farm(2, [] { return [](long v) { return v; }; },
                          pipeline::ordered) |
           pipeline::sink([&calls](long) { ++calls; });
  };
  auto p1 = make();
  p1.run_sequential();
  auto p2 = make();
  (void)p2.run_threaded();
  EXPECT_EQ(calls, 0);
  auto results = mpl::spmd_collect<int>(4, [&](mpl::Process& p) {
    int local_calls = 0;
    auto plan = counting_source(0) |
                pipeline::farm(2, [] { return [](long v) { return v; }; },
                               pipeline::ordered) |
                pipeline::sink([&local_calls](long) { ++local_calls; });
    plan.run_process(p);
    return local_calls;
  });
  for (const int c : results) EXPECT_EQ(c, 0);
}

// ------------------------------------------------- driver equivalence -----

TEST(Pipeline, ThreadedEqualsSequentialOrderedFarm) {
  const auto make = [](std::vector<long>& out) {
    return counting_source(500) |
           pipeline::farm(4, [] { return [](long v) { return v * v; }; },
                          pipeline::ordered) |
           pipeline::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out;
  auto p1 = make(seq_out);
  p1.run_sequential();
  auto p2 = make(thr_out);
  pipeline::Config cfg;
  cfg.queue_capacity = 32;
  cfg.batch = 8;
  (void)p2.run_threaded(cfg);
  EXPECT_EQ(thr_out, seq_out);  // ordered farm: exact sequence match
}

TEST(Pipeline, UnorderedFarmIsAPermutation) {
  const auto make = [](std::vector<long>& out) {
    return counting_source(300) |
           pipeline::farm(4, [] { return [](long v) { return v + 7; }; },
                          pipeline::unordered) |
           pipeline::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out;
  auto p1 = make(seq_out);
  p1.run_sequential();
  auto p2 = make(thr_out);
  pipeline::Config cfg;
  cfg.queue_capacity = 16;
  cfg.batch = 4;
  (void)p2.run_threaded(cfg);
  std::sort(seq_out.begin(), seq_out.end());
  std::sort(thr_out.begin(), thr_out.end());
  EXPECT_EQ(thr_out, seq_out);  // same multiset, any order
}

TEST(Pipeline, SpmdEqualsSequentialOrderedFarm) {
  const auto make = [](std::vector<long>& out) {
    return counting_source(400) | pipeline::stage([](long v) { return v - 3; }) |
           pipeline::farm(3, [] { return [](long v) { return 5 * v; }; },
                          pipeline::ordered) |
           pipeline::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out;
  auto p1 = make(seq_out);
  p1.run_sequential();
  const int np = 6;  // source + stage + farm(3) + sink
  pipeline::Config cfg;
  cfg.queue_capacity = 24;
  cfg.batch = 6;
  auto per_rank = mpl::spmd_collect<std::vector<long>>(np, [&](mpl::Process& p) {
    std::vector<long> out;
    auto plan = make(out);
    EXPECT_EQ(plan.ranks_required(), np);
    plan.run_process(p, cfg);
    return out;
  });
  EXPECT_EQ(per_rank.back(), seq_out);
  for (int r = 0; r + 1 < np; ++r) {
    EXPECT_TRUE(per_rank[static_cast<std::size_t>(r)].empty());
  }
}

TEST(Pipeline, SpmdFilteringStageBeforeOrderedFarmKeepsSequence) {
  // A filtering stage upstream of an ordered farm can shrink whole batches
  // to empty; those empties must keep traveling on the wire so the farm's
  // output resequencer still sees contiguous sequence numbers (a dropped
  // seq would stall the resequencer forever). Batch=2 makes all-filtered
  // batches common.
  constexpr long kN = 600;
  const auto make = [](std::vector<long>& out) {
    return counting_source(kN) |
           pipeline::stage([](long v) -> std::optional<long> {
             if (v >= kN / 2 && v % 2 == 1) return std::nullopt;
             if (v >= kN / 2 && v % 4 == 0) return std::nullopt;
             return v;
           }) |
           pipeline::farm(3, [] { return [](long v) { return v * 10; }; },
                          pipeline::ordered) |
           pipeline::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out;
  auto p1 = make(seq_out);
  p1.run_sequential();
  pipeline::Config cfg;
  cfg.queue_capacity = 8;
  cfg.batch = 2;
  auto per_rank = mpl::spmd_collect<std::vector<long>>(6, [&](mpl::Process& p) {
    std::vector<long> out;
    auto plan = make(out);
    plan.run_process(p, cfg);
    return out;
  });
  EXPECT_EQ(per_rank.back(), seq_out);
}

TEST(Pipeline, SpmdIdleExtraRanksAreHarmless) {
  const long want = 250 * 249 / 2;
  auto totals = mpl::spmd_collect<long>(5, [&](mpl::Process& p) {
    long total = 0;
    auto plan = counting_source(250) | pipeline::sink([&total](long v) { total += v; });
    plan.run_process(p);  // needs 2 ranks; 3 idle through the run
    return total;
  });
  EXPECT_EQ(totals[1], want);
}

TEST(Pipeline, SpmdThrowsWhenWorldTooSmall) {
  // GraphShapeError derives from std::invalid_argument, so pre-existing
  // catch sites keep working; the typed fields name the first node whose
  // rank block does not fit and carry the required-vs-available widths.
  int caught = 0;
  try {
    mpl::spmd_run(2, [&](mpl::Process& p) {
      long total = 0;
      auto plan = counting_source(10) |
                  pipeline::farm(4, [] { return [](long v) { return v; }; },
                                 pipeline::unordered) |
                  pipeline::sink([&total](long v) { total += v; });
      plan.run_process(p);  // needs 6 ranks
    });
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "farm#1 (unordered)");
    EXPECT_EQ(e.required(), 6);
    EXPECT_EQ(e.available(), 2);
  }
  EXPECT_EQ(caught, 1);
  EXPECT_THROW(
      mpl::spmd_run(2, [&](mpl::Process& p) {
        long total = 0;
        auto plan = counting_source(10) |
                    pipeline::farm(4, [] { return [](long v) { return v; }; },
                                   pipeline::unordered) |
                    pipeline::sink([&total](long v) { total += v; });
        plan.run_process(p);
      }),
      std::invalid_argument);
}

TEST(Pipeline, SpmdRejectsUnorderedFarmBeforeOrderedFarm) {
  // Wire-level resequencing needs the ordered farm's input in seq order; an
  // upstream unordered farm scrambles it, which could starve the credit
  // loop (the sink withholds acks for out-of-order batches while the
  // producer holding the missing seq waits for credit). Rejected up front,
  // with the typed error naming the ordered farm (node 3 of the graph).
  int caught = 0;
  try {
    mpl::spmd_run(8, [&](mpl::Process& p) {
      long total = 0;
      auto plan = counting_source(10) |
                  pipeline::farm(2, [] { return [](long v) { return v; }; },
                                 pipeline::unordered) |
                  pipeline::stage([](long v) { return v; }) |
                  pipeline::farm(2, [] { return [](long v) { return v; }; },
                                 pipeline::ordered) |
                  pipeline::sink([&total](long v) { total += v; });
      plan.run_process(p);
    });
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "farm#3 (ordered)");
  } catch (const std::logic_error&) {
    ADD_FAILURE() << "expected the typed GraphShapeError";
  }
  EXPECT_EQ(caught, 1);
}

TEST(Pipeline, ZeroFarmWidthIsClampedToOne) {
  // farm(0, ...) must not hang the threaded driver or divide by zero in the
  // sequential one: the factory clamps the width to one replica.
  const auto make = [](long& total) {
    return counting_source(40) |
           pipeline::farm(0, [] { return [](long v) { return v + 2; }; },
                          pipeline::ordered) |
           pipeline::sink([&total](long v) { total += v; });
  };
  const long want = 40 * 39 / 2 + 2 * 40;
  long seq_total = 0;
  auto p1 = make(seq_total);
  EXPECT_EQ(p1.ranks_required(), 3);  // source + one replica + sink
  p1.run_sequential();
  EXPECT_EQ(seq_total, want);
  long thr_total = 0;
  auto p2 = make(thr_total);
  (void)p2.run_threaded();
  EXPECT_EQ(thr_total, want);
}

TEST(Pipeline, SpmdRejectsOrderedFarmIntoFarm) {
  // The typed error names the ordered farm and carries the width story:
  // its resequencing point needs one consuming rank, but the successor
  // farm is 3 wide.
  int caught = 0;
  try {
    mpl::spmd_run(8, [&](mpl::Process& p) {
      long total = 0;
      auto plan = counting_source(10) |
                  pipeline::farm(2, [] { return [](long v) { return v; }; },
                                 pipeline::ordered) |
                  pipeline::farm(3, [] { return [](long v) { return v; }; },
                                 pipeline::unordered) |
                  pipeline::sink([&total](long v) { total += v; });
      plan.run_process(p);
    });
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "farm#1 (ordered)");
    EXPECT_EQ(e.required(), 1);
    EXPECT_EQ(e.available(), 3);
  } catch (const std::logic_error&) {
    ADD_FAILURE() << "expected the typed GraphShapeError";
  }
  EXPECT_EQ(caught, 1);
}

TEST(Pipeline, NodeWidthMetadataIsExposed) {
  // The compose layer reads per-node rank widths off the plan; pin the
  // source-to-sink order and the farm replica counts.
  long total = 0;
  auto plan = counting_source(10) | pipeline::stage([](long v) { return v; }) |
              pipeline::farm(3, [] { return [](long v) { return v; }; },
                             pipeline::unordered) |
              pipeline::sink([&total](long v) { total += v; });
  const std::vector<int> want{1, 1, 3, 1};
  EXPECT_EQ(plan.node_widths(), want);
  EXPECT_EQ(plan.node_count(), 4u);
  EXPECT_EQ(plan.ranks_required(), 6);
  EXPECT_EQ(plan.node_label(0), "source");
  EXPECT_EQ(plan.node_label(1), "stage#1");
  EXPECT_EQ(plan.node_label(2), "farm#2 (unordered)");
  EXPECT_EQ(plan.node_label(3), "sink");
}

TEST(Pipeline, FarmIntoFarmDoesNotDeadlockUnderTinyQueues) {
  // Regression: an ordered farm feeding a farm through tiny channels. Each
  // replica runs on its own thread, and the ordered farm's output channel
  // admits batches in input order, so a replica waiting for its turn or
  // for room never holds up the replica whose turn it is, and the
  // downstream farm's replicas keep draining. Tiny queues + small batches
  // maximize the blocking.
  constexpr long kN = 8000;
  long count = 0, sum = 0;
  auto plan = counting_source(kN) |
              pipeline::farm(4, [] { return [](long v) { return v + 1; }; },
                             pipeline::ordered) |
              pipeline::farm(4, [] { return [](long v) { return 2 * v; }; },
                             pipeline::unordered) |
              pipeline::sink([&](long v) {
                ++count;
                sum += v;
              });
  pipeline::Config cfg;
  cfg.queue_capacity = 4;
  cfg.batch = 2;
  const auto stats = plan.run_threaded(cfg);
  EXPECT_EQ(count, kN);
  EXPECT_EQ(sum, 2 * (kN * (kN - 1) / 2 + kN));
  for (const auto& q : stats.queues) EXPECT_LE(q.high_water, q.capacity);
}

TEST(Pipeline, ThreadedFarmRunsEveryReplicaAtOnce) {
  // run_threaded gives each farm replica its own slot thread, so a farm
  // wider than the machine still has all of its replicas active at once.
  // Each replica's first item waits (at most 2 s) until all W are active.
  const int width = static_cast<int>(
      std::min(std::thread::hardware_concurrency() + 2, 16u));
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  struct Replica {
    std::atomic<int>* active;
    std::atomic<int>* peak;
    int width;
    bool first = true;
    long operator()(long v) {
      if (!first) return v;
      first = false;
      const int now = active->fetch_add(1) + 1;
      int seen = peak->load();
      while (now > seen && !peak->compare_exchange_weak(seen, now)) {
      }
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (peak->load() < width && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      active->fetch_sub(1);
      return v;
    }
  };
  const long n = 4L * width;
  long sum = 0;
  auto plan = counting_source(n) |
              pipeline::farm(
                  width, [&] { return Replica{&active, &peak, width}; },
                  pipeline::unordered) |
              pipeline::sink([&sum](long v) { sum += v; });
  pipeline::Config cfg;
  cfg.queue_capacity = static_cast<std::size_t>(width);
  cfg.batch = 1;
  (void)plan.run_threaded(cfg);
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(peak.load(), width);
}

/// Ordered-farm worker that turns slow for good once it holds item 0, so
/// its peers keep parking on their admission turn behind it.
struct SlowAfterFirstItem {
  bool slow = false;
  long operator()(long v) {
    if (v == 0) slow = true;
    if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return v;
  }
};

TEST(Pipeline, CancellationReleasesEveryThreadedWait) {
  // Two-item channels and one item per batch: while the slow replica holds
  // the turn, its peers wait for their turn or for space and the source
  // waits on a full channel. The sink then throws mid-stream; cancellation
  // must release every one of those waits, so the run rethrows once and
  // returns.
  auto plan = counting_source(1000) |
              pipeline::farm(4, [] { return SlowAfterFirstItem{}; },
                             pipeline::ordered) |
              pipeline::sink([](long v) {
                if (v == 40) throw std::runtime_error("sink failure");
              });
  pipeline::Config cfg;
  cfg.queue_capacity = 2;
  cfg.batch = 1;
  int caught = 0;
  try {
    (void)plan.run_threaded(cfg);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink failure");
    ++caught;
  }
  EXPECT_EQ(caught, 1);
}

// ------------------------------------------------------- backpressure -----

TEST(Pipeline, BackpressureBoundsQueueOccupancy) {
  // Fast source, slow sink: without blocking backpressure the first queue
  // would fill far beyond its bound. The high-water instrumentation must
  // show every queue at or below its configured capacity.
  std::atomic<long> consumed{0};
  auto plan = counting_source(600) |
              pipeline::stage([](long v) { return v; }) |
              pipeline::sink([&consumed](long) {
                consumed.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::microseconds(20));
              });
  pipeline::Config cfg;
  cfg.queue_capacity = 16;
  cfg.batch = 4;
  const auto stats = plan.run_threaded(cfg);
  EXPECT_EQ(consumed.load(), 600);
  ASSERT_EQ(stats.queues.size(), 2u);
  for (const auto& q : stats.queues) {
    EXPECT_EQ(q.capacity, 16u);
    EXPECT_LE(q.high_water, q.capacity);
    EXPECT_GT(q.batches, 0u);
  }
  // The bound was actually exercised: a 600-item stream through 4-item
  // batches crosses each queue in far more batches than fit at once.
  EXPECT_GE(stats.queues.front().batches, 600u / 4u);
}

TEST(Pipeline, OrderedFarmBacklogStaysBoundedWithSlowSink) {
  // Regression: with a slow sink, an ordered farm's backlog stays bounded.
  // Its output channel admits batches in input order and blocks each
  // replica at the channel's capacity, so no results pile up out of order
  // ahead of the sink. Correct order and a capacity-respecting queue pin
  // the behavior.
  constexpr long kN = 2000;
  std::vector<long> out;
  auto plan = counting_source(kN) |
              pipeline::farm(4, [] { return [](long v) { return v + 1; }; },
                             pipeline::ordered) |
              pipeline::sink([&out](long v) {
                out.push_back(v);
                if (out.size() % 64 == 0) {
                  std::this_thread::sleep_for(std::chrono::microseconds(200));
                }
              });
  pipeline::Config cfg;
  cfg.queue_capacity = 8;
  cfg.batch = 2;
  const auto stats = plan.run_threaded(cfg);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  for (long i = 0; i < kN; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i + 1);
  for (const auto& q : stats.queues) EXPECT_LE(q.high_water, q.capacity);
}

// ------------------------------------------------------------ exceptions --

TEST(Pipeline, ThrowingStageRethrowsExactlyOnceThreaded) {
  int caught = 0;
  auto plan = counting_source(1000) |
              pipeline::stage([](long v) {
                if (v == 321) throw std::runtime_error("stage failure");
                return v;
              }) |
              pipeline::sink([](long) {});
  try {
    (void)plan.run_threaded();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stage failure");
    ++caught;
  }
  EXPECT_EQ(caught, 1);
}

TEST(Pipeline, ThrowingFarmWorkerRethrowsAfterDrain) {
  // The farm must drain its in-flight pool tasks before the rethrow; the
  // drained tasks' side effects stay visible and no second exception leaks.
  std::atomic<int> processed{0};
  int caught = 0;
  auto plan = counting_source(400) |
              pipeline::farm(
                  3,
                  [&processed] {
                    return [&processed](long v) {
                      if (v == 123) throw std::runtime_error("worker failure");
                      processed.fetch_add(1, std::memory_order_relaxed);
                      return v;
                    };
                  },
                  pipeline::ordered) |
              pipeline::sink([](long) {});
  try {
    (void)plan.run_threaded();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker failure");
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  EXPECT_GT(processed.load(), 0);
}

TEST(Pipeline, ThrowingSinkRethrowsThreaded) {
  int caught = 0;
  auto plan = counting_source(100) | pipeline::sink([](long v) {
                if (v == 50) throw std::runtime_error("sink failure");
              });
  try {
    (void)plan.run_threaded();
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
}

TEST(Pipeline, ThrowingStagePropagatesFromSpmd) {
  EXPECT_THROW(
      mpl::spmd_run(3, [&](mpl::Process& p) {
        auto plan = counting_source(100) |
                    pipeline::stage([](long v) {
                      if (v == 17) throw std::runtime_error("spmd stage failure");
                      return v;
                    }) |
                    pipeline::sink([](long) {});
        plan.run_process(p);
      }),
      std::runtime_error);
}

// ------------------------------------------------- worker state + flush ---

struct FlushWorker {
  long local = 0;
  std::optional<long> operator()(long v) {
    local += v;
    return std::nullopt;
  }
  std::vector<long> flush() { return {local}; }
};

TEST(Pipeline, FarmFlushEmitsOncePerWorkerEveryDriver) {
  constexpr long kN = 500;
  constexpr int kWidth = 4;
  const long want = kN * (kN - 1) / 2;
  const auto make = [](long& total, int& flushes) {
    return counting_source(kN) |
           pipeline::farm(kWidth, [] { return FlushWorker{}; },
                          pipeline::unordered) |
           pipeline::sink([&total, &flushes](long v) {
             total += v;
             ++flushes;
           });
  };
  {
    long total = 0;
    int flushes = 0;
    auto plan = make(total, flushes);
    plan.run_sequential();
    EXPECT_EQ(total, want);
    EXPECT_EQ(flushes, kWidth);  // one local accumulator per replica
  }
  {
    long total = 0;
    int flushes = 0;
    auto plan = make(total, flushes);
    (void)plan.run_threaded();
    EXPECT_EQ(total, want);
    EXPECT_EQ(flushes, kWidth);
  }
  {
    auto results = mpl::spmd_collect<std::pair<long, int>>(
        2 + kWidth, [&](mpl::Process& p) {
          long total = 0;
          int flushes = 0;
          auto plan = make(total, flushes);
          plan.run_process(p);
          return std::pair<long, int>{total, flushes};
        });
    EXPECT_EQ(results.back().first, want);
    EXPECT_EQ(results.back().second, kWidth);
  }
}

// ------------------------------------------------------ stream workloads --

TEST(StreamSignalChain, AllDriversMatchTheOracle) {
  app::stream::SignalConfig cfg;
  cfg.windows = 96;
  cfg.farm_width = 3;
  const auto oracle = app::stream::signal_oracle(cfg);
  ASSERT_EQ(oracle.size(), cfg.windows);

  EXPECT_EQ(app::stream::signal_sequential(cfg), oracle);

  pipeline::Config pcfg;
  pcfg.queue_capacity = 32;
  pcfg.batch = 8;
  auto [threaded, stats] = app::stream::signal_threaded(cfg, pcfg);
  EXPECT_EQ(threaded, oracle);  // ordered farm: bitwise-identical sequence
  for (const auto& q : stats.queues) EXPECT_LE(q.high_water, q.capacity);

  const int np = app::stream::signal_ranks_required(cfg);
  auto per_rank = mpl::spmd_collect<std::vector<app::stream::Feature>>(
      np, [&](mpl::Process& p) { return app::stream::signal_process(p, cfg, pcfg); });
  EXPECT_EQ(per_rank.back(), oracle);
}

TEST(StreamSignalChain, FeaturesAreBandLimited) {
  // Sanity on the workload itself: filtering to an empty band nulls the
  // signal, so features collapse to zero energy.
  app::stream::SignalConfig cfg;
  cfg.windows = 4;
  cfg.band_lo = 0;
  cfg.band_hi = 0;
  for (const auto& f : app::stream::signal_oracle(cfg)) {
    EXPECT_EQ(f.energy, 0.0);
    EXPECT_EQ(f.peak_mag, 0.0);
  }
}

TEST(StreamTextStats, AllDriversMatchTheOracle) {
  app::stream::TextConfig cfg;
  cfg.chunks = 120;
  cfg.farm_width = 4;
  const auto oracle = app::stream::text_oracle(cfg);
  ASSERT_EQ(oracle.chunks, cfg.chunks);
  ASSERT_GT(oracle.words, 0u);

  EXPECT_EQ(app::stream::text_sequential(cfg), oracle);

  pipeline::Config pcfg;
  pcfg.queue_capacity = 16;
  pcfg.batch = 4;
  auto [threaded, stats] = app::stream::text_threaded(cfg, pcfg);
  EXPECT_EQ(threaded, oracle);  // worker-local counts merge commutatively
  for (const auto& q : stats.queues) EXPECT_LE(q.high_water, q.capacity);

  const int np = app::stream::text_ranks_required(cfg);
  auto per_rank = mpl::spmd_collect<app::stream::WordStats>(
      np, [&](mpl::Process& p) { return app::stream::text_process(p, cfg, pcfg); });
  EXPECT_EQ(per_rank.back(), oracle);
}

TEST(StreamTextStats, HistogramsAreConsistent) {
  app::stream::TextConfig cfg;
  cfg.chunks = 50;
  const auto stats = app::stream::text_oracle(cfg);
  std::uint64_t by_letter = 0, by_length = 0;
  for (const auto c : stats.first_letter) by_letter += c;
  for (const auto c : stats.length_hist) by_length += c;
  EXPECT_EQ(by_letter, stats.words);
  EXPECT_EQ(by_length, stats.words);
}

// ----------------------------------------------------------- config -------

TEST(Pipeline, ConfigNormalizationClampsDegenerateValues) {
  // Zero-sized knobs must not hang or divide by zero: capacity/batch are
  // clamped to at least one item, batch to at most the capacity.
  long sum = 0;
  auto plan = counting_source(50) |
              pipeline::stage([](long v) { return v; }) |
              pipeline::sink([&sum](long v) { sum += v; });
  pipeline::Config cfg;
  cfg.queue_capacity = 0;
  cfg.batch = 0;
  const auto stats = plan.run_threaded(cfg);
  EXPECT_EQ(sum, 50 * 49 / 2);
  for (const auto& q : stats.queues) EXPECT_LE(q.high_water, 1u);
}

}  // namespace
