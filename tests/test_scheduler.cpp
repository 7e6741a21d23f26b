// Concurrency test battery for the space-sharing scheduler
// (mpl/scheduler.hpp) and the concurrent-disjoint-jobs substrate beneath it
// (JobContext in mpl/world.hpp, Engine::run_on_ranks):
//
//   - Isolation properties: concurrent narrow jobs produce bitwise-identical
//     results and identical communication traces to the same jobs run solo,
//     at several width splits of a width-8 engine; their tag reservations
//     are disjoint; the tag space drains to zero after every job.
//   - Queue semantics: priority ordering under contention, bounded-depth
//     backpressure, cancellation and deadline expiry of *queued* jobs.
//   - Nested/dependent submission: spmd_run inside a scheduled job's rank
//     body goes to a cold world; queueing from a rank thread throws.
//   - A seeded randomized soak: hundreds of mixed jobs from many submitter
//     threads, a fraction disturbed by an installed FaultPlan, with the
//     invariant that a failing job takes down only itself.
//
// PPA_SCHED_SOAK_JOBS overrides the soak's job count (default 320; CI's
// TSan leg uses a reduced count).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mpl/engine.hpp"
#include "mpl/fault.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"
#include "mpl/tagspace.hpp"

namespace {

using namespace ppa;
using namespace ppa::mpl;
using namespace std::chrono_literals;

// ------------------------------------------------------------- isolation --

/// Deterministic compute + communication body: seeded per-rank data, a
/// ring exchange on a reserved user tag, an allreduce checksum, and a
/// gather to rank 0. Everything observable — the gathered bits, the trace —
/// is a function of (seed, np) only, never of physical rank placement.
/// `arrivals`/`expected` form a cross-job latch so concurrent jobs are
/// provably resident at the same time before any of them communicates, and
/// `reserved`/`expected_jobs` a second latch so every job still *holds* its
/// tag reservation while the others reserve — without it the recyclable
/// allocator may legitimately hand a released block to the next job, and
/// the disjointness assertion would race.
void isolation_body(Process& p, std::uint64_t seed, std::atomic<int>& arrivals,
                    int expected, std::atomic<int>& reserved, int expected_jobs,
                    std::vector<double>* out, std::pair<int, int>* tags_out) {
  const int np = p.size();
  const int r = p.rank();
  arrivals.fetch_add(1);
  while (arrivals.load() < expected) std::this_thread::yield();

  TagBlock block;
  int base = 0;
  if (r == 0) {
    block = p.world().reserve_tags(2);
    base = block.base();
    if (tags_out != nullptr) *tags_out = {base, base + 2};
    reserved.fetch_add(1);
    while (reserved.load() < expected_jobs) std::this_thread::yield();
  }
  base = p.broadcast_value(base, 0);

  std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r + 1)));
  std::vector<double> local(16);
  for (auto& v : local) {
    v = std::ldexp(static_cast<double>(rng() >> 11), -53);
  }
  const int right = (r + 1) % np;
  const int left = (r + np - 1) % np;
  p.send(right, base, std::span<const double>(local));
  const auto from_left = p.recv<double>(left, base);
  for (std::size_t i = 0; i < local.size(); ++i) local[i] += 0.5 * from_left[i];

  double checksum = 0.0;
  for (const double v : local) checksum += v;
  local.push_back(p.allreduce(checksum, SumOp{}));

  auto gathered = p.gather(std::span<const double>(local), 0);
  if (r == 0 && out != nullptr) *out = std::move(gathered);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_trace_identical(const TraceSnapshot& got, const TraceSnapshot& want,
                            const std::string& label) {
  EXPECT_EQ(got.messages, want.messages) << label;
  EXPECT_EQ(got.bytes, want.bytes) << label;
  EXPECT_EQ(got.copies, want.copies) << label;
  EXPECT_EQ(got.copied_bytes, want.copied_bytes) << label;
  EXPECT_EQ(got.ops, want.ops) << label;
  EXPECT_EQ(got.sent_bytes_by_rank, want.sent_bytes_by_rank) << label;
}

TEST(SchedulerIsolation, ConcurrentNarrowJobsMatchSoloRuns) {
  auto engine = std::make_shared<Engine>(8);
  Scheduler sched(engine);
  struct Slot {
    std::vector<double> bits;
    TraceSnapshot trace;
    std::pair<int, int> tags{0, 0};
  };
  const std::vector<std::vector<int>> splits = {
      {1, 7}, {2, 6}, {4, 4}, {2, 2, 4}};

  for (const auto& split : splits) {
    SCOPED_TRACE("split of " + std::to_string(split.size()) + " jobs");
    // Solo references: one job at a time, each on an otherwise-idle
    // scheduler (lowest-index grant == exactly the Engine::run placement).
    std::vector<Slot> solo(split.size());
    for (std::size_t j = 0; j < split.size(); ++j) {
      std::atomic<int> arrivals{0};
      std::atomic<int> reserved{0};
      const std::uint64_t seed = 100 * j + 7;
      solo[j].trace = sched.run(split[j], [&](Process& p) {
        isolation_body(p, seed, arrivals, split[j], reserved, 1,
                       &solo[j].bits, nullptr);
      });
      ASSERT_FALSE(solo[j].bits.empty());
      ASSERT_EQ(engine->world().tag_space().outstanding(), 0);
    }

    // The same jobs, all resident at once (the latch releases only when
    // every rank of every job in the split has arrived — possible only if
    // the scheduler space-shares the full width).
    const int total =
        std::accumulate(split.begin(), split.end(), 0);
    ASSERT_LE(total, engine->width());
    std::vector<Slot> conc(split.size());
    std::atomic<int> arrivals{0};
    std::atomic<int> reserved{0};
    const int njobs = static_cast<int>(split.size());
    {
      std::vector<std::jthread> submitters;
      submitters.reserve(split.size());
      for (std::size_t j = 0; j < split.size(); ++j) {
        submitters.emplace_back([&, j] {
          const std::uint64_t seed = 100 * j + 7;
          conc[j].trace = sched.run(split[j], [&, seed](Process& p) {
            isolation_body(p, seed, arrivals, total, reserved, njobs,
                           &conc[j].bits, &conc[j].tags);
          });
        });
      }
    }

    for (std::size_t j = 0; j < split.size(); ++j) {
      const std::string label =
          "job " + std::to_string(j) + " (np=" + std::to_string(split[j]) + ")";
      EXPECT_TRUE(bitwise_equal(conc[j].bits, solo[j].bits))
          << label << ": concurrent result diverged from solo run";
      expect_trace_identical(conc[j].trace, solo[j].trace, label);
      // Concurrently-held tag reservations must be pairwise disjoint.
      for (std::size_t k = j + 1; k < split.size(); ++k) {
        const bool overlap = conc[j].tags.first < conc[k].tags.second &&
                             conc[k].tags.first < conc[j].tags.second;
        EXPECT_FALSE(overlap)
            << "jobs " << j << " and " << k << " shared tags ["
            << conc[j].tags.first << "," << conc[j].tags.second << ") vs ["
            << conc[k].tags.first << "," << conc[k].tags.second << ")";
      }
    }
    EXPECT_EQ(engine->world().tag_space().outstanding(), 0)
        << "a concurrent job leaked its tag block";
  }
  // The latch proves residency, but assert the scheduler saw it too.
  EXPECT_GE(sched.stats().concurrency_high_water, 2);
  EXPECT_EQ(sched.stats().admitted,
            sched.stats().completed + sched.stats().failed);
}

TEST(SchedulerIsolation, FailingJobAbortsOnlyItsOwnRankSet) {
  auto engine = std::make_shared<Engine>(8);
  Scheduler sched(engine);
  // Job A (np=4) runs a long ping-pong loop; job B (np=4) throws once both
  // are resident. A must complete unperturbed, B must surface its error.
  std::atomic<int> resident{0};
  std::atomic<bool> b_failed{false};
  std::jthread victim([&] {
    try {
      sched.run(4, [&](Process& p) {
        resident.fetch_add(1);
        while (resident.load() < 8) std::this_thread::yield();
        if (p.rank() == 0) {
          while (!b_failed.load()) std::this_thread::yield();
        }
        p.barrier();
        const auto all = p.allgather_value(p.rank());
        ASSERT_EQ(static_cast<int>(all.size()), 4);
      });
    } catch (...) {
      ADD_FAILURE() << "the healthy job was torn down by its sibling's abort";
    }
  });
  try {
    sched.run(4, [&](Process& p) {
      resident.fetch_add(1);
      while (resident.load() < 8) std::this_thread::yield();
      if (p.rank() == 2) throw std::runtime_error("job B rank 2 failed");
      (void)p.recv_value<int>((p.rank() + 1) % 4, 5);  // released by B's abort
    });
    FAIL() << "job B's root cause must be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job B rank 2 failed");
  }
  b_failed.store(true);
  victim.join();
  EXPECT_EQ(sched.stats().failed, 1u);
  EXPECT_EQ(sched.stats().completed, 1u);
}

// --------------------------------------------------------- queue semantics --

/// Occupies `np` ranks until release() is called; submitted from its own
/// thread so the test thread stays free to drive the scenario.
struct Blocker {
  explicit Blocker(Scheduler& sched, int np) {
    thread = std::jthread([this, &sched, np] {
      sched.run(np, [this](Process& p) {
        entered.fetch_add(1);
        while (!released.load()) std::this_thread::yield();
        p.barrier();
      });
    });
    while (entered.load() < np) std::this_thread::yield();
  }
  void release() { released.store(true); }
  std::atomic<int> entered{0};
  std::atomic<bool> released{false};
  std::jthread thread;
};

void wait_until(const std::function<bool()>& pred) {
  while (!pred()) std::this_thread::yield();
}

TEST(SchedulerQueue, PriorityClassesAdmitInOrderUnderContention) {
  auto engine = std::make_shared<Engine>(2);
  Scheduler sched(engine);
  Blocker blocker(sched, 2);

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto submit = [&](const std::string& name, Priority pri) {
    const std::uint64_t before = sched.stats().submitted;
    auto t = std::jthread([&sched, &order, &order_mutex, name, pri] {
      sched.run(
          2,
          [&order, &order_mutex, name](Process& p) {
            if (p.rank() == 0) {
              const std::scoped_lock lock(order_mutex);
              order.push_back(name);
            }
            p.barrier();
          },
          pri);
    });
    // Sequence the enqueues so FIFO-within-class is deterministic.
    wait_until([&] { return sched.stats().submitted > before; });
    return t;
  };

  auto low1 = submit("low1", Priority::kLow);
  auto low2 = submit("low2", Priority::kLow);
  auto normal = submit("normal", Priority::kNormal);
  auto high = submit("high", Priority::kHigh);
  EXPECT_EQ(sched.stats().queue_high_water, 4u);

  blocker.release();
  low1.join();
  low2.join();
  normal.join();
  high.join();
  blocker.thread.join();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "normal", "low1", "low2"}));
}

TEST(SchedulerQueue, BoundedDepthBlocksSubmittersAtHighWater) {
  auto engine = std::make_shared<Engine>(1);
  Scheduler sched(engine, SchedulerConfig{.queue_depth = 2});
  Blocker blocker(sched, 1);

  std::atomic<int> done{0};
  std::vector<std::jthread> queued;
  for (int i = 0; i < 2; ++i) {
    queued.emplace_back([&] {
      sched.run(1, [](Process&) {});
      done.fetch_add(1);
    });
  }
  wait_until([&] { return sched.stats().submitted == 3; });  // blocker + 2

  // The queue is at depth: a third submission must block *before* entering
  // the queue (backpressure), so `submitted` must not advance.
  std::jthread overflow([&] {
    sched.run(1, [](Process&) {});
    done.fetch_add(1);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(sched.stats().submitted, 3u)
      << "submission was admitted past the bounded queue depth";
  EXPECT_EQ(sched.stats().queue_high_water, 2u);
  EXPECT_EQ(done.load(), 0);

  blocker.release();
  blocker.thread.join();
  for (auto& t : queued) t.join();
  overflow.join();
  EXPECT_EQ(done.load(), 3);
  // The backpressured job entered the queue once space freed up.
  EXPECT_EQ(sched.stats().submitted, 4u);
  EXPECT_LE(sched.stats().queue_high_water, 2u);
}

TEST(SchedulerQueue, CancellingAQueuedJobRemovesItWithoutRunning) {
  auto engine = std::make_shared<Engine>(1);
  Scheduler sched(engine);
  Blocker blocker(sched, 1);

  CancelSource cancel;
  std::atomic<bool> ran{false};
  std::exception_ptr seen;
  std::jthread submitter([&] {
    try {
      sched.run(
          1, [&](Process&) { ran.store(true); }, Priority::kNormal,
          JobOptions{.cancel = cancel.token()});
    } catch (...) {
      seen = std::current_exception();
    }
  });
  wait_until([&] { return sched.stats().submitted == 2; });
  cancel.cancel();
  submitter.join();
  ASSERT_TRUE(seen);
  EXPECT_THROW(std::rethrow_exception(seen), JobCancelled);
  EXPECT_FALSE(ran.load()) << "a cancelled queued job must never run";
  EXPECT_EQ(sched.stats().cancelled_queued, 1u);

  blocker.release();
  blocker.thread.join();
  // The queue slot was reclaimed; the scheduler keeps serving.
  sched.run(1, [](Process& p) { p.barrier(); });
  EXPECT_FALSE(ran.load());
}

TEST(SchedulerQueue, DeadlineExpiringWhileQueuedRejectsWithoutAdmission) {
  auto engine = std::make_shared<Engine>(1);
  Scheduler sched(engine);
  Blocker blocker(sched, 1);

  std::atomic<bool> ran{false};
  std::exception_ptr seen;
  const auto submitted_at = std::chrono::steady_clock::now();
  std::jthread submitter([&] {
    try {
      sched.run(
          1, [&](Process&) { ran.store(true); }, Priority::kNormal,
          JobOptions{.deadline = 30ms});
    } catch (...) {
      seen = std::current_exception();
    }
  });
  submitter.join();
  const auto waited = std::chrono::steady_clock::now() - submitted_at;
  ASSERT_TRUE(seen);
  EXPECT_THROW(std::rethrow_exception(seen), JobDeadlineExceeded);
  EXPECT_FALSE(ran.load()) << "an expired queued job must never be admitted";
  EXPECT_GE(waited, 30ms) << "the deadline clock must start at submission";
  EXPECT_EQ(sched.stats().expired_queued, 1u);

  blocker.release();
  blocker.thread.join();
  sched.run(1, [](Process& p) { p.barrier(); });
  EXPECT_FALSE(ran.load());
}

// --------------------------------------------- nested/dependent submission --

TEST(SchedulerValidation, OutOfRangeWidthThrowsNamingItsEntryPoint) {
  auto engine = std::make_shared<Engine>(2);
  Scheduler sched(engine);
  // The invalid_argument message of a submission; empty when none is thrown.
  const auto message_of = [](const auto& submit) -> std::string {
    try {
      submit();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  };
  for (const int nprocs : {0, engine->width() + 1}) {
    const std::string run =
        message_of([&] { (void)sched.run(nprocs, [](Process&) {}); });
    EXPECT_EQ(run.rfind("Scheduler::run: ", 0), 0u)
        << "nprocs=" << nprocs << ": " << run;
    TraceSnapshot out;
    const std::string try_run = message_of(
        [&] { (void)sched.try_run_job(nprocs, [](Process&) {}, out); });
    EXPECT_EQ(try_run.rfind("Scheduler::try_run_job: ", 0), 0u)
        << "nprocs=" << nprocs << ": " << try_run;
  }
  EXPECT_EQ(sched.stats().submitted, 0u);
}

TEST(SchedulerNesting, SpmdRunInsideScheduledJobGoesCold) {
  auto engine = std::make_shared<Engine>(2);
  Scheduler sched(engine);
  std::atomic<int> inner_total{0};
  sched.run(2, [&](Process& p) {
    if (p.rank() == 0) {
      // From an engine rank thread spmd_run must take the cold path — the
      // process scheduler could otherwise queue a job this job depends on.
      spmd_run(2, [&](Process& q) { inner_total.fetch_add(q.size()); });
    }
    p.barrier();
  });
  EXPECT_EQ(inner_total.load(), 4);
}

TEST(SchedulerNesting, QueueingFromARankThreadThrows) {
  auto engine = std::make_shared<Engine>(2);
  Scheduler sched(engine);
  EXPECT_THROW(sched.run(2,
                         [&](Process& p) {
                           if (p.rank() == 0) {
                             (void)sched.run(1, [](Process&) {});
                           }
                         }),
               std::logic_error);
  // ...and the scheduler keeps serving after the failed job.
  sched.run(2, [](Process& p) { p.barrier(); });
  EXPECT_EQ(sched.stats().completed, 1u);
  EXPECT_EQ(sched.stats().failed, 1u);
}

TEST(SchedulerNesting, DependentConcurrentJobsDoNotDeadlock) {
  // A scheduled job that *waits on* a concurrent spmd_run issued from a
  // helper thread mid-job: the helper's submission must never queue behind
  // this job (admit-now-or-never, else cold), so the dependency resolves.
  auto engine = std::make_shared<Engine>(2);
  Scheduler sched(engine);
  std::atomic<bool> inner_done{false};
  std::jthread helper;
  sched.run(2, [&](Process& p) {
    if (p.rank() == 0) {
      helper = std::jthread([&] {
        spmd_run(2, [](Process& q) { q.barrier(); });
        inner_done.store(true);
      });
      while (!inner_done.load()) std::this_thread::yield();
    }
    p.barrier();
  });
  EXPECT_TRUE(inner_done.load());
}

// ------------------------------------------------------------------- soak --

int sched_soak_jobs() {
  const char* env = std::getenv("PPA_SCHED_SOAK_JOBS");
  if (env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 320;
}

TEST(SchedulerSoak, RandomizedMixedJobsAcrossSubmitterThreads) {
  auto engine = std::make_shared<Engine>(8);
  Scheduler sched(engine, SchedulerConfig{.queue_depth = 16});

  // One seeded plan for the whole battery, keyed on *physical* ranks: jobs
  // granted rank 3 crash periodically, jobs granted rank 5 occasionally
  // lose a message (wedging a receiver until the watchdog rescues it), and
  // two ranks jitter. Which jobs are disturbed depends on placement; the
  // invariant under test is that every disturbance stays inside its job.
  FaultPlan plan(2026, {FaultRule{.site = FaultSite::kRankBody,
                                  .rank = 3,
                                  .at_op = 0,
                                  .period = 5,
                                  .kind = FaultKind::kThrow},
                        FaultRule{.site = FaultSite::kMailboxPush,
                                  .rank = 5,
                                  .at_op = 40,
                                  .period = 300,
                                  .kind = FaultKind::kDrop},
                        FaultRule{.site = FaultSite::kBarrier,
                                  .rank = 1,
                                  .at_op = 0,
                                  .period = 6,
                                  .probability = 0.5,
                                  .kind = FaultKind::kDelay,
                                  .delay_us = 50},
                        FaultRule{.site = FaultSite::kMailboxPop,
                                  .rank = 6,
                                  .at_op = 3,
                                  .period = 9,
                                  .probability = 0.5,
                                  .kind = FaultKind::kDelay,
                                  .delay_us = 30}});

  const int total_jobs = sched_soak_jobs();
  const int kThreads = 8;
  const int per_thread = (total_jobs + kThreads - 1) / kThreads;

  std::atomic<int> completed{0};
  std::atomic<int> faulted{0};
  std::atomic<int> stalled{0};
  std::atomic<int> deadlined{0};
  std::atomic<int> cancelled{0};
  std::atomic<int> wrong_results{0};
  std::atomic<int> unexpected{0};
  {
    const FaultInjectionScope scope(plan);
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937_64 rng(777 + static_cast<std::uint64_t>(t));
        for (int j = 0; j < per_thread; ++j) {
          const int np = 1 + static_cast<int>(rng() % 4);
          const auto pri = static_cast<Priority>(rng() % 3);
          // Safety net on every job: nothing may wedge past the watchdog.
          JobOptions options{.deadline = 5s, .watchdog_grace = 250ms};
          if (rng() % 11 == 0) options.deadline = 1ms;  // SLO misses in the mix
          if (rng() % 13 == 0) {
            CancelSource cancel;  // pre-fired: exercises queue removal
            cancel.cancel();
            options.cancel = cancel.token();
          }
          try {
            sched.run(
                np,
                [np, &wrong_results](Process& p) {
                  const auto all = p.allgather_value(p.rank());
                  bool ok = static_cast<int>(all.size()) == np;
                  for (int r = 0; ok && r < np; ++r) ok = all[static_cast<std::size_t>(r)] == r;
                  const double sum = p.allreduce(static_cast<double>(p.rank()), SumOp{});
                  ok = ok && sum == static_cast<double>(np * (np - 1)) / 2.0;
                  if (!ok) wrong_results.fetch_add(1);
                },
                pri, options);
            completed.fetch_add(1);
          } catch (const FaultInjected&) {
            faulted.fetch_add(1);
          } catch (const JobStalled&) {
            stalled.fetch_add(1);
          } catch (const JobDeadlineExceeded&) {
            deadlined.fetch_add(1);
          } catch (const JobCancelled&) {
            cancelled.fetch_add(1);
          } catch (...) {
            // The scheduler must only surface the typed classes above.
            unexpected.fetch_add(1);
          }
        }
      });
    }
  }

  EXPECT_EQ(wrong_results.load(), 0)
      << "a job observed a result perturbed by a sibling";
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(faulted.load(), 0) << "the plan never landed a visible fault";
  EXPECT_GT(completed.load(), 0);

  const auto st = sched.stats();
  EXPECT_EQ(st.admitted, st.completed + st.failed);
  EXPECT_GE(st.concurrency_high_water, 2);
  EXPECT_LE(st.queue_high_water, 16u);
  EXPECT_EQ(engine->world().tag_space().outstanding(), 0);
  const int accounted = completed.load() + faulted.load() + stalled.load() +
                        deadlined.load() + cancelled.load();
  EXPECT_EQ(accounted, kThreads * per_thread);

  // The engine is still fully serviceable at full width after the storm:
  // a fault-free check job (the plan was uninstalled with the scope above)
  // is bitwise-equal — bits and trace — to the same job on a never-faulted
  // engine.
  const std::uint64_t kCheckSeed = 424242;
  std::vector<double> ref_bits;
  TraceSnapshot ref_trace;
  {
    auto ref_engine = std::make_shared<Engine>(8);
    Scheduler ref_sched(ref_engine);
    std::atomic<int> arr{0};
    std::atomic<int> res{0};
    ref_trace = ref_sched.run(8, [&](Process& p) {
      isolation_body(p, kCheckSeed, arr, 8, res, 1, &ref_bits, nullptr);
    });
  }
  std::vector<double> post_bits;
  std::atomic<int> arr{0};
  std::atomic<int> res{0};
  const auto post_trace = sched.run(8, [&](Process& p) {
    isolation_body(p, kCheckSeed, arr, 8, res, 1, &post_bits, nullptr);
  });
  ASSERT_FALSE(post_bits.empty());
  EXPECT_TRUE(bitwise_equal(post_bits, ref_bits))
      << "post-soak check job diverged from the clean reference";
  expect_trace_identical(post_trace, ref_trace, "post-soak check job");
  EXPECT_EQ(engine->world().tag_space().outstanding(), 0);
}

}  // namespace
