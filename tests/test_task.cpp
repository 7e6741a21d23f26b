// Tests for the work-stealing task runtime (core/task.hpp): ThreadPool /
// TaskGroup fork-join semantics, stealing, exception propagation, nesting
// with parfor and divide_and_conquer, and the pooled branch-and-bound and
// algorithm drivers' determinism contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algorithms/closest_pair.hpp"
#include "algorithms/hull.hpp"
#include "algorithms/skyline.hpp"
#include "apps/sort/traditional_mergesort.hpp"
#include "core/core.hpp"
#include "support/rng.hpp"

namespace {

using namespace ppa;

// ------------------------------------------------------------- TaskGroup --

TEST(TaskGroup, AllTasksRunExactlyOnce) {
  task::ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::vector<std::atomic<int>> hits(kTasks);
  task::TaskGroup group(pool);
  for (std::size_t i = 0; i < kTasks; ++i) {
    group.run([&hits, i] { hits[i].fetch_add(1); });
  }
  group.wait();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGroup, WaitIsReusable) {
  task::ThreadPool pool(2);
  task::TaskGroup group(pool);
  std::atomic<int> count{0};
  group.run([&] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 1);
  group.run([&] { ++count; });
  group.run([&] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(TaskGroup, FirstExceptionRethrownAtWait) {
  task::ThreadPool pool(4);
  task::TaskGroup group(pool);
  std::atomic<int> completed{0};
  for (int i = 0; i < 16; ++i) {
    group.run([&completed, i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ++completed;
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The group is intact after the throw: remaining tasks all ran.
  EXPECT_EQ(completed.load(), 15);
  // And reusable: a clean batch joins cleanly.
  group.run([&completed] { ++completed; });
  EXPECT_NO_THROW(group.wait());
  EXPECT_EQ(completed.load(), 16);
}

TEST(TaskGroup, NestedGroupsJoinWithoutDeadlock) {
  // A one-worker pool is the adversarial case: the forked task's nested
  // group can only finish because joiners help execute queued tasks.
  task::ThreadPool pool(1);
  std::atomic<int> leaves{0};
  task::TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.run([&pool, &leaves] {
      task::TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) inner.run([&leaves] { ++leaves; });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(TaskGroup, StealingMovesWorkAcrossWorkers) {
  task::ThreadPool pool(4);
  const std::uint64_t steals_before = pool.steals();
  // One task forks many slow subtasks: they land on that worker's deque,
  // and the other three workers can only get them by stealing. The main
  // thread deliberately does NOT join (help) until the forking task is
  // done, so the forker is guaranteed to be a pool worker with a deque.
  std::atomic<bool> done{false};
  task::TaskGroup group(pool);
  group.run([&pool, &done] {
    task::TaskGroup inner(pool);
    for (int i = 0; i < 64; ++i) {
      inner.run([] { std::this_thread::sleep_for(std::chrono::microseconds(200)); });
    }
    inner.wait();
    done.store(true);
  });
  while (!done.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  group.wait();
  EXPECT_GT(pool.steals(), steals_before);
}

TEST(TaskGroup, ExternalSubmitterUsesInjector) {
  // Submissions from a non-worker thread (this one) must still run.
  task::ThreadPool pool(2);
  std::atomic<int> ran{0};
  task::TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 100);
}

// ---------------------------------------------------- parfor on the pool --

TEST(ParforPool, ThrowingBodyRethrowsAfterJoin) {
  // Regression: the seed's jthread-based parfor called std::terminate when
  // a worker body threw. The pool-backed parfor must complete the join and
  // rethrow, matching sequential semantics.
  EXPECT_THROW(
      parfor(1000, par(4),
             [](std::size_t i) {
               if (i == 637) throw std::runtime_error("body failed");
             }),
      std::runtime_error);
}

TEST(ParforPool, ThrowingBodyInEveryChunkStillOneException) {
  std::atomic<int> attempts{0};
  try {
    parfor(64, par(8), [&attempts](std::size_t) {
      ++attempts;
      throw std::logic_error("all bodies fail");
    });
    FAIL() << "parfor must rethrow";
  } catch (const std::logic_error&) {
  }
  EXPECT_GT(attempts.load(), 0);
}

TEST(ParforPool, SequentialThrowIsUnchanged) {
  EXPECT_THROW(
      parfor(10, seq,
             [](std::size_t i) {
               if (i == 3) throw std::runtime_error("seq");
             }),
      std::runtime_error);
}

TEST(ParforPool, NestedInsideTaskGroup) {
  // parfor called from inside a pool task (the satellite's nested case):
  // the inner join helps rather than blocking the only worker.
  task::ThreadPool& pool = task::ThreadPool::instance();
  constexpr std::size_t kOuter = 4, kInner = 257;
  std::vector<std::vector<double>> out(kOuter, std::vector<double>(kInner, 0.0));
  task::TaskGroup group(pool);
  for (std::size_t o = 0; o < kOuter; ++o) {
    group.run([&out, o] {
      parfor(kInner, par(4), [&out, o](std::size_t i) {
        out[o][i] = static_cast<double>(o * 1000 + i) * 1.5;
      });
    });
  }
  group.wait();
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(out[o][i], static_cast<double>(o * 1000 + i) * 1.5);
    }
  }
}

TEST(ParforPool, NestedParforInsideParfor) {
  std::vector<std::atomic<int>> counts(64);
  parfor(8, par(4), [&counts](std::size_t o) {
    parfor(8, par(4), [&counts, o](std::size_t i) {
      counts[o * 8 + i].fetch_add(1);
    });
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// ------------------------------------------- divide and conquer, on-pool --

long pool_dc_sum(std::vector<long> xs, int depth) {
  using Problem = std::vector<long>;
  return dc::divide_and_conquer<Problem, long>(
      std::move(xs),
      [](const Problem& p) { return p.size() <= 2; },
      [](Problem p) { return std::accumulate(p.begin(), p.end(), 0L); },
      [](Problem p) {
        const auto mid = static_cast<std::ptrdiff_t>(p.size() / 2);
        Problem left(p.begin(), p.begin() + mid);
        Problem right(p.begin() + mid, p.end());
        std::vector<Problem> subs;
        subs.push_back(std::move(left));
        subs.push_back(std::move(right));
        return subs;
      },
      [](std::vector<long> sols) { return sols[0] + sols[1]; }, depth);
}

TEST(TaskDC, DeepRecursionMatchesSequentialBitwise) {
  // The satellite's deep-recursion case: fork at every level of a recursion
  // much deeper than the pool is wide; results must equal parallel_depth=0.
  std::vector<long> xs(20000);
  std::iota(xs.begin(), xs.end(), -7000);
  const long sequential = pool_dc_sum(xs, 0);
  EXPECT_EQ(pool_dc_sum(xs, 16), sequential);
  EXPECT_EQ(pool_dc_sum(xs, 30), sequential);
}

TEST(TaskDC, KWaySplitMatchesSequential) {
  // 4-way recursion forked at its top six levels onto the pool; the leaf
  // sums, merged in split order, must equal the closed form.
  std::vector<long> xs(5000);
  std::iota(xs.begin(), xs.end(), 1);
  using Problem = std::vector<long>;
  const auto result = dc::divide_and_conquer<Problem, long>(
      Problem(xs),
      [](const Problem& p) { return p.size() <= 4; },
      [](Problem p) { return std::accumulate(p.begin(), p.end(), 0L); },
      [](Problem p) {
        std::vector<Problem> subs;
        const std::size_t quarter = p.size() / 4;
        for (int q = 0; q < 4; ++q) {
          const std::size_t lo = quarter * static_cast<std::size_t>(q);
          const std::size_t hi = (q == 3) ? p.size() : lo + quarter;
          subs.emplace_back(p.begin() + static_cast<std::ptrdiff_t>(lo),
                            p.begin() + static_cast<std::ptrdiff_t>(hi));
        }
        return subs;
      },
      [](std::vector<long> sols) {
        return std::accumulate(sols.begin(), sols.end(), 0L);
      },
      6);
  EXPECT_EQ(result, 5000L * 5001L / 2);
}

TEST(TaskDC, MergesortPoolEqualsStdSort) {
  const auto data = random_ints(30000, -1000000, 1000000, 99);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(app::traditional_mergesort(data, 8), expected);
}

// ----------------------------------------- ported algorithm task drivers --

TEST(TaskAlgorithms, SkylineTaskIdenticalToSequential) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<algo::Building> bs;
    for (int i = 0; i < 500; ++i) {
      const double left = rng.uniform(0.0, 1000.0);
      bs.push_back({left, left + rng.uniform(0.5, 80.0), rng.uniform(1.0, 50.0)});
    }
    const auto sequential =
        algo::skyline_divide_and_conquer(std::span<const algo::Building>(bs));
    EXPECT_EQ(algo::skyline_task(std::span<const algo::Building>(bs)), sequential);
    EXPECT_EQ(algo::skyline_task(std::span<const algo::Building>(bs), 9),
              sequential);
  }
}

TEST(TaskAlgorithms, ClosestPairTaskIdenticalToSequential) {
  for (std::uint64_t seed : {5u, 6u}) {
    Rng rng(seed);
    std::vector<algo::Point2> pts;
    for (int i = 0; i < 4000; ++i) {
      pts.push_back({rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)});
    }
    const auto sequential = algo::closest_pair(std::span<const algo::Point2>(pts));
    const auto pooled = algo::closest_pair_task(std::span<const algo::Point2>(pts));
    EXPECT_EQ(pooled.distance, sequential.distance);
    EXPECT_EQ(pooled.a, sequential.a);
    EXPECT_EQ(pooled.b, sequential.b);
  }
}

TEST(TaskAlgorithms, ConvexHullTaskIdenticalToSequential) {
  for (std::uint64_t seed : {7u, 8u}) {
    Rng rng(seed);
    std::vector<algo::Point2> pts;
    for (int i = 0; i < 3000; ++i) {
      pts.push_back({rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
    }
    // Adversarial extras: duplicates and collinear runs.
    for (int i = 0; i < 100; ++i) pts.push_back({0.0, static_cast<double>(i % 7)});
    for (int i = 0; i < 100; ++i) pts.push_back(pts[static_cast<std::size_t>(i)]);
    EXPECT_EQ(algo::convex_hull_task(pts), algo::convex_hull(pts));
    EXPECT_EQ(algo::convex_hull_task(pts, 13), algo::convex_hull(pts));
  }
}

TEST(TaskAlgorithms, ConvexHullTaskTinyInputs) {
  std::vector<algo::Point2> pts{{0, 0}, {1, 1}, {2, 0}};
  EXPECT_EQ(algo::convex_hull_task(pts), algo::convex_hull(pts));
  pts.resize(1);
  EXPECT_EQ(algo::convex_hull_task(pts), algo::convex_hull(pts));
}

}  // namespace
