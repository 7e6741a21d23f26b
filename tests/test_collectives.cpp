// Collective-operation tests, parameterized over world size (including
// non-power-of-two sizes, which exercise the reduce+broadcast fallback in
// allreduce). Each collective is validated against a sequential oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mpl/channel.hpp"
#include "mpl/engine.hpp"
#include "mpl/process.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa::mpl;

class CollectivesP : public testing::TestWithParam<int> {
 protected:
  [[nodiscard]] int P() const { return GetParam(); }
};

TEST_P(CollectivesP, BroadcastFromEveryRoot) {
  const int p = P();
  for (int root = 0; root < p; ++root) {
    const auto results = spmd_collect<std::vector<int>>(p, [root](Process& proc) {
      std::vector<int> data;
      if (proc.rank() == root) data = {root, root + 1, root + 2};
      proc.broadcast(data, root);
      return data;
    });
    for (const auto& r : results) {
      EXPECT_EQ(r, (std::vector<int>{root, root + 1, root + 2}));
    }
  }
}

TEST_P(CollectivesP, BroadcastValue) {
  const int p = P();
  const auto results = spmd_collect<double>(p, [](Process& proc) {
    return proc.broadcast_value(proc.rank() == 0 ? 3.5 : -1.0, 0);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 3.5);
}

TEST_P(CollectivesP, GatherConcatenatesInRankOrder) {
  const int p = P();
  const auto results = spmd_collect<std::vector<int>>(p, [](Process& proc) {
    // Rank r contributes r+1 copies of r (ragged sizes = gatherv semantics).
    const std::vector<int> mine(static_cast<std::size_t>(proc.rank() + 1),
                                proc.rank());
    return proc.gather(std::span<const int>(mine), 0);
  });
  std::vector<int> expected;
  for (int r = 0; r < p; ++r)
    expected.insert(expected.end(), static_cast<std::size_t>(r + 1), r);
  EXPECT_EQ(results[0], expected);
  for (int r = 1; r < p; ++r) EXPECT_TRUE(results[static_cast<std::size_t>(r)].empty());
}

TEST_P(CollectivesP, GatherToNonZeroRoot) {
  const int p = P();
  const int root = p - 1;
  const auto results = spmd_collect<std::vector<int>>(p, [root](Process& proc) {
    const std::vector<int> mine{proc.rank() * 2};
    return proc.gather(std::span<const int>(mine), root);
  });
  std::vector<int> expected;
  for (int r = 0; r < p; ++r) expected.push_back(r * 2);
  EXPECT_EQ(results[static_cast<std::size_t>(root)], expected);
}

TEST_P(CollectivesP, AllgatherEveryRankSeesAll) {
  const int p = P();
  const auto results = spmd_collect<std::vector<int>>(p, [](Process& proc) {
    const std::vector<int> mine{proc.rank() + 7};
    return proc.allgather(std::span<const int>(mine));
  });
  std::vector<int> expected;
  for (int r = 0; r < p; ++r) expected.push_back(r + 7);
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

TEST_P(CollectivesP, AllgatherPartsRagged) {
  const int p = P();
  const auto results =
      spmd_collect<std::size_t>(p, [](Process& proc) {
        const std::vector<char> mine(static_cast<std::size_t>(proc.rank()), 'x');
        const auto parts = proc.allgather_parts(std::span<const char>(mine));
        std::size_t total = 0;
        for (int r = 0; r < proc.size(); ++r) {
          EXPECT_EQ(parts[static_cast<std::size_t>(r)].size(),
                    static_cast<std::size_t>(r));
          total += parts[static_cast<std::size_t>(r)].size();
        }
        return total;
      });
  const auto expected = static_cast<std::size_t>(p * (p - 1) / 2);
  for (auto t : results) EXPECT_EQ(t, expected);
}

TEST_P(CollectivesP, ScatterDistributesParts) {
  const int p = P();
  const auto results = spmd_collect<std::vector<int>>(p, [p](Process& proc) {
    std::vector<std::vector<int>> parts;
    if (proc.rank() == 0) {
      for (int r = 0; r < p; ++r) parts.push_back({r * 100, r * 100 + 1});
    }
    return proc.scatter(parts, 0);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              (std::vector<int>{r * 100, r * 100 + 1}));
  }
}

TEST_P(CollectivesP, ScatterFromNonZeroRoot) {
  const int p = P();
  const int root = p - 1;
  const auto results = spmd_collect<std::vector<int>>(p, [p, root](Process& proc) {
    std::vector<std::vector<int>> parts;
    if (proc.rank() == root) {
      for (int r = 0; r < p; ++r) parts.push_back({r * 7, r * 7 + 1});
    }
    return proc.scatter(parts, root);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              (std::vector<int>{r * 7, r * 7 + 1}));
  }
}

TEST_P(CollectivesP, ScatterRaggedParts) {
  const int p = P();
  const int root = p / 2;
  const auto results = spmd_collect<std::vector<int>>(p, [p, root](Process& proc) {
    std::vector<std::vector<int>> parts;
    if (proc.rank() == root) {
      // Rank r gets r elements (rank 0 an empty part).
      for (int r = 0; r < p; ++r) {
        parts.emplace_back(static_cast<std::size_t>(r), r * 1000);
      }
    }
    return proc.scatter(parts, root);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              std::vector<int>(static_cast<std::size_t>(r), r * 1000));
  }
}

TEST_P(CollectivesP, ScatterLargePartsRoundtrip) {
  const int p = P();
  const auto results = spmd_collect<long>(p, [p](Process& proc) {
    std::vector<std::vector<long>> parts;
    if (proc.rank() == 0) {
      for (int r = 0; r < p; ++r) {
        parts.emplace_back(static_cast<std::size_t>(1000 + r), r);
      }
    }
    const auto mine = proc.scatter(parts, 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(1000 + proc.rank()));
    long acc = 0;
    for (const long v : mine) acc += v;
    return acc;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              static_cast<long>(1000 + r) * r);
  }
}

TEST_P(CollectivesP, ReduceSumMatchesOracle) {
  const int p = P();
  const auto results = spmd_collect<long>(p, [](Process& proc) {
    return proc.reduce(static_cast<long>(proc.rank() + 1), SumOp{}, 0);
  });
  EXPECT_EQ(results[0], static_cast<long>(p) * (p + 1) / 2);
}

TEST_P(CollectivesP, ReduceMaxAtNonZeroRoot) {
  const int p = P();
  const int root = p / 2;
  const auto results = spmd_collect<int>(p, [root](Process& proc) {
    // Values chosen so the max is owned by an arbitrary middle rank.
    const int v = 100 - (proc.rank() - root) * (proc.rank() - root);
    return proc.reduce(v, MaxOp{}, root);
  });
  EXPECT_EQ(results[static_cast<std::size_t>(root)], 100);
}

TEST_P(CollectivesP, AllreduceSum) {
  const int p = P();
  const auto results = spmd_collect<long>(p, [](Process& proc) {
    return proc.allreduce(static_cast<long>(proc.rank() + 1), SumOp{});
  });
  for (long r : results) EXPECT_EQ(r, static_cast<long>(p) * (p + 1) / 2);
}

TEST_P(CollectivesP, AllreduceMaxOfDoubles) {
  const int p = P();
  const auto results = spmd_collect<double>(p, [](Process& proc) {
    return proc.allreduce(static_cast<double>(proc.rank()) * 1.5, MaxOp{});
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 1.5 * (p - 1));
}

TEST_P(CollectivesP, AllreduceVecElementwise) {
  const int p = P();
  const auto results = spmd_collect<std::vector<int>>(p, [](Process& proc) {
    const std::vector<int> mine{proc.rank(), 1, -proc.rank()};
    return proc.allreduce_vec(std::span<const int>(mine), SumOp{});
  });
  const int sum = p * (p - 1) / 2;
  for (const auto& r : results) EXPECT_EQ(r, (std::vector<int>{sum, p, -sum}));
}

TEST_P(CollectivesP, AlltoallPersonalizedExchange) {
  const int p = P();
  const auto results =
      spmd_collect<std::vector<int>>(p, [p](Process& proc) {
        // parts[j] = {rank*1000 + j}: rank i's message to rank j.
        std::vector<std::vector<int>> parts;
        for (int j = 0; j < p; ++j) parts.push_back({proc.rank() * 1000 + j});
        const auto got = proc.alltoall(std::move(parts));
        std::vector<int> flat;
        for (const auto& g : got) flat.insert(flat.end(), g.begin(), g.end());
        return flat;
      });
  for (int r = 0; r < p; ++r) {
    std::vector<int> expected;
    for (int src = 0; src < p; ++src) expected.push_back(src * 1000 + r);
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected);
  }
}

TEST_P(CollectivesP, AlltoallWithEmptyParts) {
  const int p = P();
  // Only even ranks send anything; message sizes vary.
  const auto results = spmd_collect<std::size_t>(p, [p](Process& proc) {
    std::vector<std::vector<int>> parts(static_cast<std::size_t>(p));
    if (proc.rank() % 2 == 0) {
      for (int j = 0; j < p; ++j)
        parts[static_cast<std::size_t>(j)].assign(static_cast<std::size_t>(j), 1);
    }
    const auto got = proc.alltoall(std::move(parts));
    std::size_t total = 0;
    for (const auto& g : got) total += g.size();
    return total;
  });
  for (int r = 0; r < p; ++r) {
    const std::size_t senders = static_cast<std::size_t>((p + 1) / 2);
    EXPECT_EQ(results[static_cast<std::size_t>(r)],
              senders * static_cast<std::size_t>(r));
  }
}

TEST_P(CollectivesP, ExscanPrefixSums) {
  const int p = P();
  const auto results = spmd_collect<int>(p, [](Process& proc) {
    return proc.exscan(proc.rank() + 1, SumOp{}, 0);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], r * (r + 1) / 2);
  }
}

TEST_P(CollectivesP, ReduceCountsTraceOps) {
  const int p = P();
  TraceSnapshot trace;
  spmd_collect<int>(
      p, [](Process& proc) { return proc.allreduce(proc.rank(), SumOp{}); },
      &trace);
  EXPECT_EQ(trace.op(Op::kAllreduce), static_cast<std::uint64_t>(p));
}

TEST_P(CollectivesP, AlltoallMessageCountIsPTimesPMinus1) {
  const int p = P();
  TraceSnapshot trace;
  spmd_collect<int>(
      p,
      [p](Process& proc) {
        std::vector<std::vector<int>> parts(static_cast<std::size_t>(p),
                                            std::vector<int>{proc.rank()});
        proc.alltoall(std::move(parts));
        return 0;
      },
      &trace);
  // "every process p sending to every other process q": exactly P*(P-1)
  // point-to-point messages, self-part never crossing the wire.
  EXPECT_EQ(trace.messages, static_cast<std::uint64_t>(p) * (p - 1));
}

TEST_P(CollectivesP, BroadcastMessageCountIsPMinus1) {
  const int p = P();
  TraceSnapshot trace;
  spmd_collect<int>(
      p,
      [](Process& proc) {
        std::vector<int> data(16, proc.rank());
        proc.broadcast(data, 0);
        return data.front();
      },
      &trace);
  // A binomial broadcast delivers to P-1 receivers with exactly P-1 messages.
  EXPECT_EQ(trace.messages, static_cast<std::uint64_t>(p - 1));
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesP,
                         testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------- abort during collectives --
//
// When one rank fails while the others are blocked inside a collective, the
// abort must release every peer with WorldAborted (no wedged rank, no lost
// wakeup in the tree/ring recv chains) and the submitter must see the
// victim's root-cause exception, not a secondary WorldAborted.

/// Run `op(proc)` on every rank except `victim`, which sleeps until its
/// peers are blocked inside the collective and then throws. Returns only
/// after asserting all P-1 peers were released with WorldAborted.
template <typename Collective>
void expect_abort_releases_peers(int p, int victim, Collective&& op) {
  std::atomic<int> released{0};
  EXPECT_THROW(
      spmd_run_cold(p,
                    [&](Process& proc) {
                      if (proc.rank() == victim) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        throw std::runtime_error("victim failure");
                      }
                      try {
                        op(proc);
                      } catch (const WorldAborted&) {
                        released.fetch_add(1);
                        throw;
                      }
                    }),
      std::runtime_error);
  EXPECT_EQ(released.load(), p - 1)
      << "p=" << p << " victim=" << victim
      << ": every surviving rank must be released with WorldAborted";
}

class CollectiveAbortP : public testing::TestWithParam<int> {
 protected:
  [[nodiscard]] int P() const { return GetParam(); }
};

TEST_P(CollectiveAbortP, BroadcastReleasesBlockedRanks) {
  // The victim must be the root: a live root completes its sends and only
  // the subtree below a dead rank would block. Cover root 0 and a non-zero
  // root (the tree is rotated around the root rank).
  for (const int root : {0, P() - 1}) {
    expect_abort_releases_peers(P(), root, [root](Process& proc) {
      std::vector<int> data;
      proc.broadcast(data, root);
    });
  }
}

TEST_P(CollectiveAbortP, ScatterReleasesBlockedRanks) {
  for (const int root : {0, P() - 1}) {
    expect_abort_releases_peers(P(), root, [root](Process& proc) {
      (void)proc.scatter(std::vector<std::vector<int>>{}, root);
    });
  }
}

TEST_P(CollectiveAbortP, AllreduceReleasesBlockedRanks) {
  // Rootless: any victim blocks everyone (the result needs every input).
  // Cover both ends of the rank range.
  for (const int victim : {0, P() - 1}) {
    expect_abort_releases_peers(P(), victim, [](Process& proc) {
      (void)proc.allreduce(proc.rank(), SumOp{});
    });
  }
}

TEST_P(CollectiveAbortP, AllgatherReleasesBlockedRanks) {
  for (const int victim : {0, P() - 1}) {
    expect_abort_releases_peers(P(), victim, [](Process& proc) {
      (void)proc.allgather_value(proc.rank());
    });
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveAbortP,
                         testing::Values(2, 4, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           return "P" + std::to_string(info.param);
                         });

// --- fixed-peer channels ---------------------------------------------------
// The scalar collectives ride one channel per ordered rank pair
// (channel.hpp), which checks the tag every receive expects.

TEST(ChannelCollectives, DifferentCollectiveThanPeerIsATypedTagMismatch) {
  Engine engine(2);
  // Rank 1's exscan receives rank 0's allreduce value: another kind.
  EXPECT_THROW(engine.run(2,
                          [](Process& proc) {
                            if (proc.rank() == 0) {
                              (void)proc.allreduce(1, SumOp{});
                            } else {
                              (void)proc.exscan(1, SumOp{});
                            }
                          }),
               ChannelTagMismatch);
  // Same kind, another value type: the size check catches it.
  EXPECT_THROW(engine.run(2,
                          [](Process& proc) {
                            if (proc.rank() == 0) {
                              (void)proc.allreduce(1, SumOp{});
                            } else {
                              (void)proc.allreduce(1.0, SumOp{});
                            }
                          }),
               ChannelTagMismatch);
  // The engine and its channels come back clean.
  std::vector<int> got(2, 0);
  engine.run(2, [&](Process& proc) {
    got[static_cast<std::size_t>(proc.rank())] =
        proc.allreduce(proc.rank() + 1, SumOp{});
  });
  EXPECT_EQ(got, (std::vector<int>{3, 3}));
}

TEST(ChannelCollectives, RunAheadSendersWaitForCreditAndStayInOrder) {
  // Non-root ranks of a reduce hand off and return at once, so they run
  // many collectives ahead of a slow root; the channel ring holds only
  // Channel::kSlots values, so they wait for credit — and every value
  // still reaches its own reduce.
  constexpr int kRounds = 64;
  for (const int p : {2, 3, 4}) {
    const auto sums = spmd_collect<std::vector<long>>(p, [](Process& proc) {
      if (proc.rank() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      std::vector<long> out;
      for (int k = 0; k < kRounds; ++k) {
        out.push_back(proc.reduce(static_cast<long>(k * 100 + proc.rank()),
                                  SumOp{}, 0));
      }
      return out;
    });
    for (int k = 0; k < kRounds; ++k) {
      const long expected = static_cast<long>(p) * k * 100 + p * (p - 1) / 2;
      EXPECT_EQ(sums[0][static_cast<std::size_t>(k)], expected)
          << "p=" << p << " round " << k;
    }
  }
}

TEST(ChannelCollectives, ScalarCollectiveCountsMatchTheMailboxForm) {
  // One allreduce of a double: recursive doubling at p = 4 (2 rounds),
  // reduce + broadcast at p = 3. Message, byte and copy counts are those
  // of the mailbox form each replaced.
  struct Expect {
    int p;
    std::uint64_t messages, copies;
  };
  for (const auto e : {Expect{4, 8, 16}, Expect{3, 4, 7}}) {
    TraceSnapshot trace;
    spmd_collect<double>(
        e.p, [](Process& proc) { return proc.allreduce(1.5, SumOp{}); },
        &trace);
    EXPECT_EQ(trace.messages, e.messages) << "p=" << e.p;
    EXPECT_EQ(trace.bytes, e.messages * sizeof(double)) << "p=" << e.p;
    EXPECT_EQ(trace.copies, e.copies) << "p=" << e.p;
    EXPECT_EQ(trace.copied_bytes, e.copies * sizeof(double)) << "p=" << e.p;
  }
}

}  // namespace
