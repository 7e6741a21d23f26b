// Unit tests for the persistent SPMD engine (mpl/engine.hpp): warm-rank job
// submission, per-job epochs (independent traces, re-armed barrier, emptied
// mailboxes), abort-then-reuse, the spmd_run warm wrapper, cold runs agreeing
// with engine jobs on traces and failure ranking, recyclable tag
// blocks (mpl/tagspace.hpp), and the archetype drivers submitting through a
// Scheduler over a warm engine (pipeline::run_engine, bnb::solve_engine,
// onedeep::run_engine).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/branch_and_bound.hpp"
#include "core/onedeep.hpp"
#include "core/pipeline.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"
#include "mpl/tagspace.hpp"

namespace {

using namespace ppa;
using namespace ppa::mpl;

// ---------------------------------------------------------------- engine --

TEST(Engine, RunsABasicJob) {
  Engine engine(4);
  EXPECT_EQ(engine.width(), 4);
  std::vector<int> sums(4, -1);
  engine.run(4, [&](Process& p) {
    sums[static_cast<std::size_t>(p.rank())] = p.allreduce(p.rank(), SumOp{});
  });
  EXPECT_EQ(sums, (std::vector<int>{6, 6, 6, 6}));
  EXPECT_EQ(engine.jobs_run(), 1u);
}

TEST(Engine, JobNarrowerThanWidthSeesJobSize) {
  Engine engine(6);
  std::vector<int> sizes(6, -1);
  engine.run(3, [&](Process& p) {
    sizes[static_cast<std::size_t>(p.rank())] = p.size();
    p.barrier();  // barrier must be armed for 3 participants, not 6
    (void)p.allgather_value(p.rank());
  });
  EXPECT_EQ(sizes, (std::vector<int>{3, 3, 3, -1, -1, -1}));
}

TEST(Engine, ManyJobsReuseWarmRanks) {
  Engine engine(4);
  for (int job = 0; job < 50; ++job) {
    const int np = 1 + job % 4;
    std::atomic<int> hits{0};
    engine.run(np, [&](Process& p) {
      const auto all = p.allgather_value(p.rank());
      ASSERT_EQ(static_cast<int>(all.size()), np);
      hits.fetch_add(1);
    });
    EXPECT_EQ(hits.load(), np);
  }
  EXPECT_EQ(engine.jobs_run(), 50u);
}

TEST(Engine, NprocsOutOfRangeThrows) {
  Engine engine(2);
  EXPECT_THROW(engine.run(0, [](Process&) {}), std::invalid_argument);
  EXPECT_THROW(engine.run(3, [](Process&) {}), std::invalid_argument);
}

TEST(Engine, ConsecutiveJobsReportIndependentTraces) {
  Engine engine(4);
  const auto t1 = engine.run(4, [](Process& p) {
    if (p.rank() == 0) p.send_value(1, 5, 42);
    if (p.rank() == 1) (void)p.recv_value<int>(0, 5);
  });
  EXPECT_EQ(t1.messages, 1u);
  EXPECT_EQ(t1.bytes, sizeof(int));
  ASSERT_EQ(t1.sent_bytes_by_rank.size(), 4u);
  EXPECT_EQ(t1.sent_bytes_by_rank[0], sizeof(int));
  EXPECT_EQ(t1.sent_bytes_by_rank[1], 0u);
  EXPECT_GT(t1.copied_bytes, 0u);

  // Job 2 on the same engine: counters must restart from zero, per-sender
  // attribution must reflect only this job's senders.
  const auto t2 = engine.run(2, [](Process& p) {
    if (p.rank() == 1) {
      p.send_value(0, 6, 7);
      p.send_value(0, 7, 9);
    }
    if (p.rank() == 0) {
      (void)p.recv_value<int>(1, 6);
      (void)p.recv_value<int>(1, 7);
    }
  });
  EXPECT_EQ(t2.messages, 2u);
  EXPECT_EQ(t2.bytes, 2 * sizeof(int));
  ASSERT_EQ(t2.sent_bytes_by_rank.size(), 2u);
  EXPECT_EQ(t2.sent_bytes_by_rank[0], 0u);
  EXPECT_EQ(t2.sent_bytes_by_rank[1], 2 * sizeof(int));
  EXPECT_EQ(t2.op(Op::kBarrier), 0u);
}

TEST(Engine, AbortReleasesBlockedRanksAndRethrowsRootCause) {
  Engine engine(4);
  std::atomic<int> released{0};
  try {
    engine.run(4, [&](Process& p) {
      if (p.rank() == 2) throw std::runtime_error("rank 2 failed");
      try {
        // Never satisfied: every other rank parks in a recv until abort.
        (void)p.recv<int>((p.rank() + 1) % 4, 99);
      } catch (const WorldAborted&) {
        released.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the job's root cause to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 failed");
  }
  EXPECT_EQ(released.load(), 3);
}

TEST(Engine, NextJobAfterAbortRunsClean) {
  Engine engine(3);
  // Job 1 leaves debris everywhere it can: an undelivered message (rank 0 ->
  // rank 1 tag 77) and an abort while ranks sit in a barrier.
  EXPECT_THROW(engine.run(3,
                          [](Process& p) {
                            if (p.rank() == 0) {
                              p.send_value(1, 77, 123);
                              throw std::logic_error("boom");
                            }
                            p.barrier();  // released by the abort
                          }),
               std::logic_error);

  // Job 2: no stuck barrier waiters, no stale arrivals, collectives work.
  std::atomic<int> stale{0};
  std::vector<int> sums(3, -1);
  engine.run(3, [&](Process& p) {
    Envelope env;
    if (p.world().mailbox(p.rank()).try_pop(kAnySource, 77, env)) stale.fetch_add(1);
    p.barrier();
    sums[static_cast<std::size_t>(p.rank())] = p.allreduce(1, SumOp{});
  });
  EXPECT_EQ(stale.load(), 0) << "mailboxes must be emptied at job-epoch start";
  EXPECT_EQ(sums, (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(engine.jobs_run(), 2u);
}

TEST(Engine, SubmitFromOwnRankThreadThrows) {
  Engine engine(2);
  EXPECT_THROW(engine.run(2,
                          [&](Process& p) {
                            if (p.rank() == 0) {
                              engine.run(1, [](Process&) {});
                            }
                          }),
               std::logic_error);
  // ...and the engine survives the failed job.
  engine.run(2, [](Process& p) { p.barrier(); });
}

TEST(Engine, NestedSpmdRunFallsBackToColdWorld) {
  Engine engine(2);
  std::atomic<int> inner_total{0};
  engine.run(2, [&](Process& p) {
    if (p.rank() == 0) {
      // A nested spmd_run from inside a job body must not deadlock.
      spmd_run(2, [&](Process& q) { inner_total.fetch_add(q.size()); });
    }
    p.barrier();
  });
  EXPECT_EQ(inner_total.load(), 4);
}

// ------------------------------------------------------- spmd_run wrapper --

TEST(SpmdRunWarm, KeepsTraceShapeAndFailureSemantics) {
  // Two sizes back-to-back: the process engine grows and reuses.
  const auto t4 = spmd_run(4, [](Process& p) { p.barrier(); });
  EXPECT_EQ(t4.op(Op::kBarrier), 4u);
  EXPECT_EQ(t4.sent_bytes_by_rank.size(), 4u);
  const auto t2 = spmd_run(2, [](Process& p) { p.barrier(); });
  EXPECT_EQ(t2.op(Op::kBarrier), 2u);
  EXPECT_EQ(t2.sent_bytes_by_rank.size(), 2u);

  EXPECT_THROW(spmd_run(3,
                        [](Process& p) {
                          if (p.rank() == 1) throw std::out_of_range("oops");
                          p.barrier();
                        }),
               std::out_of_range);
  // The process engine stays usable after the failure.
  const auto t3 = spmd_run(3, [](Process& p) { p.barrier(); });
  EXPECT_EQ(t3.op(Op::kBarrier), 3u);
}

TEST(SpmdRunWarm, DependentConcurrentRunsDoNotDeadlock) {
  // A run the in-flight engine job *depends on*: job 1 occupies the process
  // engine and spins until a second spmd_run (from this thread) completes.
  // The second call must detect the busy engine and fall back to a cold
  // world; blocking on engine serialization would deadlock both.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::jthread holder([&] {
    spmd_run(2, [&](Process& p) {
      if (p.rank() == 0) {
        started.store(true);
        while (!release.load()) std::this_thread::yield();
      }
      p.barrier();
    });
  });
  while (!started.load()) std::this_thread::yield();
  const auto trace = spmd_run(2, [](Process& p) { p.barrier(); });
  EXPECT_EQ(trace.op(Op::kBarrier), 2u);
  release.store(true);
}

// -------------------------------------------------------------- cold run --

TEST(ColdRun, TraceMatchesEngineRunAtEveryWidth) {
  // Per-rank sends of rank-dependent sizes, an allreduce, a barrier and an
  // alltoall: a cold run and an engine job must count every one the same.
  const auto body = [](std::vector<int>& sums) {
    return [&sums](Process& p) {
      const int np = p.size();
      const int me = p.rank();
      const std::vector<double> out(static_cast<std::size_t>(me + 1), 1.0);
      p.send((me + 1) % np, 5, out);
      const auto got = p.recv<double>((me + np - 1) % np, 5);
      sums[static_cast<std::size_t>(me)] =
          p.allreduce(static_cast<int>(got.size()), SumOp{});
      p.barrier();
      std::vector<std::vector<int>> parts(static_cast<std::size_t>(np));
      for (int j = 0; j < np; ++j) {
        parts[static_cast<std::size_t>(j)].assign(
            static_cast<std::size_t>(me + j + 1), me);
      }
      (void)p.alltoall(std::move(parts));
    };
  };
  Engine engine(4);
  for (int np = 1; np <= 4; ++np) {
    std::vector<int> cold_sums(static_cast<std::size_t>(np), -1);
    std::vector<int> warm_sums(static_cast<std::size_t>(np), -1);
    const TraceSnapshot cold = spmd_run_cold(np, body(cold_sums));
    const TraceSnapshot warm = engine.run(np, body(warm_sums));
    EXPECT_EQ(cold_sums, warm_sums) << "np=" << np;
    EXPECT_EQ(cold.messages, warm.messages) << "np=" << np;
    EXPECT_EQ(cold.bytes, warm.bytes) << "np=" << np;
    EXPECT_EQ(cold.copies, warm.copies) << "np=" << np;
    EXPECT_EQ(cold.copied_bytes, warm.copied_bytes) << "np=" << np;
    EXPECT_EQ(cold.sent_bytes_by_rank, warm.sent_bytes_by_rank) << "np=" << np;
    EXPECT_EQ(cold.sent_bytes_by_rank.size(), static_cast<std::size_t>(np));
    for (int op = 0; op < kOpCount; ++op) {
      EXPECT_EQ(cold.op(static_cast<Op>(op)), warm.op(static_cast<Op>(op)))
          << "np=" << np << " op=" << op_name(static_cast<Op>(op));
    }
  }
}

TEST(ColdRun, RethrowsRootCauseOverWorldAborted) {
  std::atomic<int> released{0};
  std::atomic<int> saw_cancelled{0};
  EXPECT_THROW(spmd_run_cold(4,
                             [&](Process& p) {
                               if (p.cancelled()) saw_cancelled.fetch_add(1);
                               if (p.rank() == 1) throw std::out_of_range("rank 1");
                               try {
                                 // Never satisfied: released only by the abort.
                                 (void)p.recv<int>((p.rank() + 1) % 4, 99);
                               } catch (const WorldAborted&) {
                                 released.fetch_add(1);
                                 if (p.cancelled()) saw_cancelled.fetch_add(1);
                                 throw;
                               }
                             }),
               std::out_of_range);
  EXPECT_EQ(released.load(), 3);
  EXPECT_EQ(saw_cancelled.load(), 0) << "a rank failure is not a cancellation";
}

// ------------------------------------------------------------- tag space --

TEST(TagSpace, RecyclesPastOldExhaustionPoint) {
  // A space with room for exactly one 8-tag block: under the old monotone
  // allocator the second reservation would already throw length_error.
  TagSpace space(100, 108);
  for (int i = 0; i < 1000; ++i) {
    const int base = space.reserve(8);
    EXPECT_EQ(base, 100);
    space.release(base, 8);
  }
  EXPECT_EQ(space.outstanding(), 0);
}

TEST(TagSpace, CoalescesFreedNeighbors) {
  TagSpace space(0x1000, 0x1000 + 12);
  const int a = space.reserve(4);
  const int b = space.reserve(4);
  const int c = space.reserve(4);
  EXPECT_THROW(space.reserve(1), std::length_error);
  // Release out of order; the free list must coalesce back to one range.
  space.release(b, 4);
  space.release(a, 4);
  space.release(c, 4);
  EXPECT_EQ(space.outstanding(), 0);
  const int full = space.reserve(12);
  EXPECT_EQ(full, 0x1000);
  space.release(full, 12);
}

TEST(TagSpace, TagBlockReleasesOnDestruction) {
  auto space = std::make_shared<TagSpace>(50, 60);
  {
    TagBlock block(space, 10);
    EXPECT_EQ(block.base(), 50);
    EXPECT_EQ(block.count(), 10);
    EXPECT_EQ(space->outstanding(), 10);
    EXPECT_THROW(TagBlock(space, 1), std::length_error);
  }
  EXPECT_EQ(space->outstanding(), 0);
  TagBlock moved_from(space, 10);
  TagBlock moved_to = std::move(moved_from);
  EXPECT_FALSE(static_cast<bool>(moved_from));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(space->outstanding(), 10);
  moved_to.release();
  EXPECT_EQ(space->outstanding(), 0);
}

TEST(TagSpace, WorldScopedReservation) {
  World world(2, std::make_shared<TagSpace>(200, 216));
  {
    auto block = world.reserve_tags(16);
    EXPECT_EQ(block.base(), 200);
    EXPECT_EQ(world.tag_space().outstanding(), 16);
  }
  EXPECT_EQ(world.tag_space().outstanding(), 0);
}

// ------------------------------------------ engine-backed archetype runs --

TEST(EngineDrivers, PipelineJobsRecycleTagBlocks) {
  // Tag space with room for exactly one pipeline's [data, credit] pairs
  // (2 edges -> 4 tags): looping plan construction past this capacity is
  // the regression the recyclable allocator exists for — the old
  // process-global monotone counter would exhaust on the second run.
  auto engine = std::make_shared<Engine>(
      3, std::make_shared<TagSpace>(kReservedTagSpaceBase,
                                    kReservedTagSpaceBase + 4));
  Scheduler sched(engine);
  for (int run = 0; run < 25; ++run) {
    int next = 0;
    long total = 0;
    auto plan = pipeline::source([&next]() -> std::optional<int> {
                  return next < 8 ? std::optional<int>(next++) : std::nullopt;
                }) |
                pipeline::stage([](int v) { return v * 2; }) |
                pipeline::sink([&total](int v) { total += v; });
    ASSERT_EQ(plan.ranks_required(), 3);
    plan.run_engine(sched);
    EXPECT_EQ(total, 56);
    EXPECT_EQ(engine->world().tag_space().outstanding(), 0)
        << "pipeline run " << run << " leaked its tag block";
  }
  EXPECT_EQ(engine->jobs_run(), 25u);
}

/// Minimize the sum of a 3-level ternary tree path (values 0..2 per level).
struct TernaryPathSpec {
  struct Node {
    int depth = 0;
    int sum = 0;
  };
  using node_type = Node;
  [[nodiscard]] double bound(const Node& n) const { return n.sum; }
  [[nodiscard]] bool is_leaf(const Node& n) const { return n.depth == 3; }
  [[nodiscard]] double leaf_value(const Node& n) const { return n.sum; }
  [[nodiscard]] std::vector<Node> branch(const Node& n) const {
    std::vector<Node> kids;
    for (int v = 0; v < 3; ++v) kids.push_back({n.depth + 1, n.sum + v});
    return kids;
  }
};

/// Degenerate-split sorting spec: local sort + sample-based repartition.
struct SampleSortSpec {
  using value_type = int;
  using merge_sample_type = int;
  using merge_param_type = int;
  void local_solve(std::vector<int>& local) const {
    std::sort(local.begin(), local.end());
  }
  [[nodiscard]] std::vector<int> merge_sample(const std::vector<int>& local) const {
    return local;
  }
  [[nodiscard]] std::vector<int> merge_params(const std::vector<int>& samples,
                                              int nparts) const {
    auto sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> splitters;
    for (int k = 1; k < nparts; ++k) {
      splitters.push_back(
          sorted.empty() ? 0
                         : sorted[sorted.size() * static_cast<std::size_t>(k) /
                                  static_cast<std::size_t>(nparts)]);
    }
    return splitters;
  }
  [[nodiscard]] std::vector<std::vector<int>> repartition(
      std::vector<int> local, const std::vector<int>& splitters,
      int nparts) const {
    std::vector<std::vector<int>> parts(static_cast<std::size_t>(nparts));
    for (const int v : local) {
      std::size_t part = 0;
      while (part < splitters.size() && v >= splitters[part]) ++part;
      parts[part].push_back(v);
    }
    return parts;
  }
  [[nodiscard]] std::vector<int> local_merge(
      std::vector<std::vector<int>> parts) const {
    std::vector<int> out;
    for (auto& part : parts) out.insert(out.end(), part.begin(), part.end());
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST(EngineDrivers, BnbSolveOnWarmEngine) {
  Scheduler sched(std::make_shared<Engine>(4));
  TernaryPathSpec spec;
  for (int run = 0; run < 3; ++run) {
    bnb::ProcessStats stats;
    const double best =
        bnb::solve_engine(spec, sched, TernaryPathSpec::Node{}, 4, 16, 2, &stats);
    EXPECT_EQ(best, 0.0);
    EXPECT_GT(stats.rounds, 0u);
  }
}

TEST(EngineDrivers, OneDeepOnWarmEngine) {
  Scheduler sched(std::make_shared<Engine>(4));
  SampleSortSpec spec;
  std::vector<int> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int>((i * 37) % 101);
  }
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  for (int run = 0; run < 3; ++run) {
    auto locals = onedeep::run_engine(
        spec, sched, onedeep::block_distribute(data, 4));
    EXPECT_EQ(onedeep::gather_blocks(std::move(locals)), expected);
  }
}

TEST(EngineDrivers, OneDeepSortsFromTwoThreadsShareOneScheduler) {
  // Two np=2 one-deep sorts submitted from two threads to one width-4
  // scheduler: the jobs may run side by side on disjoint rank sets, and
  // each must still equal std::sort.
  auto engine = std::make_shared<Engine>(4);
  Scheduler sched(engine);
  constexpr int kRuns = 10;
  const auto make_data = [](std::size_t salt) {
    std::vector<int> data(257);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<int>((i * (37 + 2 * salt) + salt) % 1009);
    }
    return data;
  };
  std::vector<int> data[2] = {make_data(0), make_data(1)};
  std::vector<std::vector<int>> sorted[2];
  std::thread submitters[2];
  for (int t = 0; t < 2; ++t) {
    submitters[t] = std::thread([&, t] {
      SampleSortSpec spec;
      for (int run = 0; run < kRuns; ++run) {
        sorted[t].push_back(onedeep::gather_blocks(onedeep::run_engine(
            spec, sched, onedeep::block_distribute(data[t], 2))));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (int t = 0; t < 2; ++t) {
    auto expected = data[t];
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(sorted[t].size(), static_cast<std::size_t>(kRuns));
    for (const auto& out : sorted[t]) EXPECT_EQ(out, expected) << "thread " << t;
  }
  EXPECT_EQ(sched.stats().completed, 2u * kRuns);
  EXPECT_EQ(engine->jobs_run(), 2u * kRuns);
}

TEST(EngineDrivers, MixedJobStreamOnOneEngine) {
  // The serving shape: heterogeneous jobs interleaved on one warm engine.
  auto engine = std::make_shared<Engine>(4);
  Scheduler sched(engine);
  for (int round = 0; round < 5; ++round) {
    sched.run(4, [](Process& p) { (void)p.allgather_value(p.rank()); });
    sched.run(2, [](Process& p) {
      if (p.rank() == 0) p.send_value(1, 3, 1);
      if (p.rank() == 1) (void)p.recv_value<int>(0, 3);
    });
    int next = 0;
    long total = 0;
    auto plan = pipeline::source([&next]() -> std::optional<int> {
                  return next < 4 ? std::optional<int>(next++) : std::nullopt;
                }) |
                pipeline::stage([](int v) { return v + 1; }) |
                pipeline::sink([&total](int v) { total += v; });
    plan.run_engine(sched);
    EXPECT_EQ(total, 10);
  }
  EXPECT_EQ(engine->jobs_run(), 15u);
  EXPECT_EQ(engine->world().tag_space().outstanding(), 0);
}

TEST(TagSpace, ExhaustionReportsRequestAndOutstanding) {
  auto space = std::make_shared<TagSpace>(1 << 24, (1 << 24) + 8);
  TagBlock held(space, 6);
  try {
    (void)space->reserve(4);
    FAIL() << "reserve past capacity must throw";
  } catch (const TagSpaceExhausted& e) {
    EXPECT_EQ(e.requested, 4);
    EXPECT_EQ(e.outstanding, 6);
    EXPECT_EQ(e.capacity, 8);
    const std::string what = e.what();
    EXPECT_NE(what.find("requested 4"), std::string::npos) << what;
    EXPECT_NE(what.find("outstanding 6 of 8"), std::string::npos) << what;
  }
  // The failed reserve must not perturb the free list: after releasing the
  // held block the full (coalesced) range is reservable again.
  held.release();
  TagBlock all(space, 8);
  EXPECT_EQ(all.base(), 1 << 24);
  EXPECT_EQ(space->outstanding(), 8);
}

TEST(EngineLifetime, DestroyWhileJobIsMidAbort) {
  // Regression: destroying the engine while a job is tearing down via abort
  // must not hang the destructor's rank-thread joins.
  std::atomic<int> entered{0};
  std::atomic<bool> release_thrower{false};
  auto engine = std::make_unique<Engine>(4);
  std::exception_ptr seen;
  std::thread submitter([&] {
    try {
      engine->run(4, [&](Process& p) {
        entered.fetch_add(1);
        if (p.rank() == 0) {
          while (!release_thrower.load()) std::this_thread::yield();
          throw std::runtime_error("boom");
        }
        (void)p.recv_value<int>(0, 9);  // blocks until the abort releases it
      });
    } catch (...) {
      seen = std::current_exception();
    }
  });
  while (entered.load() < 4) std::this_thread::yield();
  release_thrower.store(true);  // abort starts propagating...
  engine.reset();               // ...while the engine is being destroyed
  submitter.join();
  ASSERT_TRUE(seen);
  EXPECT_THROW(std::rethrow_exception(seen), std::runtime_error);
}

TEST(EngineLifetime, DestroyWhileWedgedJobAwaitsWatchdog) {
  // Harder variant: no rank ever throws — the job is wedged on a message
  // that never arrives and only the watchdog can end it. Destruction must
  // keep the monitor alive until it rescues the wedged ranks.
  auto engine = std::make_unique<Engine>(2);
  std::atomic<int> entered{0};
  std::exception_ptr seen;
  std::thread submitter([&] {
    try {
      engine->run(
          2,
          [&](Process& p) {
            entered.fetch_add(1);
            (void)p.recv_value<int>((p.rank() + 1) % 2, 13);
          },
          JobOptions{.watchdog_grace = std::chrono::milliseconds(100)});
    } catch (...) {
      seen = std::current_exception();
    }
  });
  while (entered.load() < 2) std::this_thread::yield();
  engine.reset();  // must block, not hang: the watchdog fires mid-destructor
  submitter.join();
  ASSERT_TRUE(seen);
  EXPECT_THROW(std::rethrow_exception(seen), JobStalled);
}

}  // namespace
