// Unit tests for the message-passing layer: envelopes, mailboxes, barrier,
// SPMD runtime, failure propagation, tracing, and Cartesian topologies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "mpl/engine.hpp"
#include "mpl/mailbox.hpp"
#include "mpl/message.hpp"
#include "mpl/process.hpp"
#include "mpl/spmd.hpp"
#include "mpl/topology.hpp"
#include "mpl/trace.hpp"
#include "mpl/world.hpp"

namespace {

using namespace ppa::mpl;

// ------------------------------------------------------------ pack/unpack --

TEST(Message, PackUnpackRoundtrip) {
  const std::vector<int> xs{1, -2, 3, 2147483647};
  const auto bytes = pack(std::span<const int>(xs));
  EXPECT_EQ(bytes.size(), xs.size() * sizeof(int));
  EXPECT_EQ(unpack<int>(bytes), xs);
}

TEST(Message, PackEmpty) {
  const std::vector<double> xs;
  const auto bytes = pack(std::span<const double>(xs));
  EXPECT_TRUE(bytes.empty());
  EXPECT_TRUE(unpack<double>(bytes).empty());
}

TEST(Message, PackStructs) {
  struct P {
    double x, y;
    int id;
  };
  const std::vector<P> ps{{1.0, 2.0, 3}, {-1.0, 0.5, 9}};
  const auto bytes = pack(std::span<const P>(ps));
  const auto back = unpack<P>(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].id, 9);
  EXPECT_DOUBLE_EQ(back[0].y, 2.0);
}

// ---------------------------------------------------------------- mailbox --

TEST(Mailbox, FifoPerSourceTag) {
  Mailbox box;
  box.push({0, 5, pack(std::span<const int>(std::vector<int>{1}))});
  box.push({0, 5, pack(std::span<const int>(std::vector<int>{2}))});
  EXPECT_EQ(unpack<int>(box.pop(0, 5).payload).front(), 1);
  EXPECT_EQ(unpack<int>(box.pop(0, 5).payload).front(), 2);
}

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox box;
  box.push({1, 7, {}});
  box.push({2, 7, {}});
  box.push({1, 9, {}});
  const auto env = box.pop(1, 9);
  EXPECT_EQ(env.source, 1);
  EXPECT_EQ(env.tag, 9);
  EXPECT_EQ(box.pending(), 2u);
}

TEST(Mailbox, WildcardSource) {
  Mailbox box;
  box.push({3, 4, {}});
  const auto env = box.pop(kAnySource, 4);
  EXPECT_EQ(env.source, 3);
}

TEST(Mailbox, WildcardTag) {
  Mailbox box;
  box.push({3, 42, {}});
  const auto env = box.pop(3, kAnyTag);
  EXPECT_EQ(env.tag, 42);
}

TEST(Mailbox, TryPopReturnsFalseWhenEmpty) {
  Mailbox box;
  Envelope env;
  EXPECT_FALSE(box.try_pop(kAnySource, kAnyTag, env));
  box.push({0, 0, {}});
  EXPECT_TRUE(box.try_pop(kAnySource, kAnyTag, env));
}

TEST(Mailbox, AbortWakesBlockedReceiver) {
  Mailbox box;
  std::atomic<bool> threw{false};
  std::jthread waiter([&] {
    try {
      box.pop(0, 0);
    } catch (const WorldAborted&) {
      threw = true;
    }
  });
  // Give the waiter time to block, then abort.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.abort();
  waiter.join();
  EXPECT_TRUE(threw);
}

// ------------------------------------------------------------------ world --

TEST(World, RejectsNonPositiveSize) {
  EXPECT_THROW(World w(0), std::invalid_argument);
  EXPECT_THROW(World w(-3), std::invalid_argument);
}

// ------------------------------------------------------------------- spmd --

TEST(Spmd, RunsAllRanksExactlyOnce) {
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> seen(8);
  spmd_run(8, [&](Process& p) {
    count.fetch_add(1);
    seen[static_cast<std::size_t>(p.rank())].fetch_add(1);
    EXPECT_EQ(p.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Spmd, SingleRankWorld) {
  spmd_run(1, [](Process& p) {
    EXPECT_EQ(p.rank(), 0);
    EXPECT_EQ(p.size(), 1);
    p.barrier();  // must not deadlock
  });
}

TEST(Spmd, PingPong) {
  spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      p.send_value(1, 0, 42);
      EXPECT_EQ(p.recv_value<int>(1, 1), 43);
    } else {
      EXPECT_EQ(p.recv_value<int>(0, 0), 42);
      p.send_value(0, 1, 43);
    }
  });
}

TEST(Spmd, MessagesAreDeepCopies) {
  // Mutating the sender's buffer after send must not affect the receiver:
  // this is the distributed-memory discipline.
  spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> buf{1, 2, 3};
      p.send(1, 0, buf);
      buf[0] = 999;
      p.barrier();
    } else {
      p.barrier();
      EXPECT_EQ(p.recv<int>(0, 0), (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Spmd, NonOvertakingSameSourceSameTag) {
  spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 100; ++i) p.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(p.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Spmd, AnySourceReceivesFromAll) {
  constexpr int kP = 6;
  spmd_run(kP, [](Process& p) {
    if (p.rank() == 0) {
      std::set<int> sources;
      for (int i = 0; i < kP - 1; ++i) {
        auto [src, data] = p.recv_any<int>(kAnySource, 0);
        EXPECT_EQ(data.front(), src * 10);
        sources.insert(src);
      }
      EXPECT_EQ(sources.size(), static_cast<std::size_t>(kP - 1));
    } else {
      p.send_value(0, 0, p.rank() * 10);
    }
  });
}

TEST(Spmd, ExceptionPropagatesAndReleasesBlockedRanks) {
  // Rank 1 throws; rank 0 is blocked in recv and must be released via
  // WorldAborted rather than deadlocking. The caller sees the root cause.
  EXPECT_THROW(spmd_run(4,
                        [](Process& p) {
                          if (p.rank() == 1) throw std::runtime_error("boom");
                          if (p.rank() == 0) p.recv<int>(1, 0);
                          if (p.rank() >= 2) p.barrier();
                        }),
               std::runtime_error);
}

TEST(Spmd, CollectReturnsPerRankResults) {
  const auto results =
      spmd_collect<int>(5, [](Process& p) { return p.rank() * p.rank(); });
  EXPECT_EQ(results, (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(Spmd, SendrecvExchange) {
  spmd_run(2, [](Process& p) {
    const int partner = 1 - p.rank();
    const std::vector<int> mine{p.rank() + 100};
    const auto theirs =
        p.sendrecv<int>(partner, 0, std::span<const int>(mine), partner, 0);
    EXPECT_EQ(theirs.front(), partner + 100);
  });
}

TEST(Spmd, TraceCountsMessagesAndBytes) {
  const auto trace = spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      p.send(1, 0, std::vector<int>{1, 2, 3, 4});  // 16 bytes
    } else {
      p.recv<int>(0, 0);
    }
  });
  EXPECT_EQ(trace.messages, 1u);
  EXPECT_EQ(trace.bytes, 16u);
}

TEST(Trace, PerRankCountersSumToClosedFormsAndRestartPerJob) {
  // Every rank counts into its own counter block; a snapshot after the job
  // joins sums them exactly. Rank r sends r+1 messages of r+2 doubles to
  // its right neighbor, then runs kRounds allreduces and barriers
  // (recursive doubling at p = 4: 2 sends of one double per allreduce).
  constexpr int kP = 4;
  constexpr std::uint64_t kRounds = 5;
  constexpr std::uint64_t kD = sizeof(double);
  const auto body = [](Process& p) {
    const int r = p.rank();
    const int right = (r + 1) % kP;
    const int left = (r + kP - 1) % kP;
    const std::vector<double> msg(static_cast<std::size_t>(r + 2), 1.0 * r);
    for (int k = 0; k <= r; ++k) p.send(right, 7, msg);
    for (int k = 0; k <= left; ++k) {
      EXPECT_EQ(p.recv<double>(left, 7).size(),
                static_cast<std::size_t>(left + 2));
    }
    for (std::uint64_t k = 0; k < kRounds; ++k) {
      EXPECT_EQ(p.allreduce(1.0, SumOp{}), 1.0 * kP);
      p.barrier();
    }
  };
  // Rank r's user traffic: r+1 messages of (r+2) doubles.
  const auto user_bytes = [](std::uint64_t r) { return (r + 1) * (r + 2) * kD; };
  std::uint64_t messages = 0, bytes = 0, copied = 0;
  std::vector<std::uint64_t> by_rank;
  for (std::uint64_t r = 0; r < kP; ++r) {
    by_rank.push_back(user_bytes(r) + kRounds * 2 * kD);
    messages += (r + 1) + kRounds * 2;
    bytes += by_rank.back();
    copied += 2 * by_rank.back();
  }
  // Every message is packed once by its sender and unpacked once by its
  // receiver.
  const std::uint64_t copies = 2 * messages;

  Engine engine(kP);
  for (int job = 0; job < 2; ++job) {  // the second job must start from zero
    const auto t = engine.run(kP, body);
    EXPECT_EQ(t.messages, messages) << "job " << job;
    EXPECT_EQ(t.bytes, bytes) << "job " << job;
    EXPECT_EQ(t.copies, copies) << "job " << job;
    EXPECT_EQ(t.copied_bytes, copied) << "job " << job;
    EXPECT_EQ(t.sent_bytes_by_rank, by_rank) << "job " << job;
    EXPECT_EQ(t.max_sent_by_any_rank(), by_rank.back()) << "job " << job;
    for (int o = 0; o < kOpCount; ++o) {
      const auto op = static_cast<Op>(o);
      const std::uint64_t want =
          op == Op::kAllreduce || op == Op::kBarrier ? kP * kRounds : 0;
      EXPECT_EQ(t.op(op), want) << op_name(op) << " job " << job;
    }
  }
}

TEST(Trace, StandaloneTraceCountsTotalsWithoutPerRankBytes) {
  CommTrace trace;
  trace.count_message(0, 16);
  trace.count_message(3, 8);
  trace.count_copy(1, 24);
  trace.count_op(2, Op::kAllreduce);
  trace.count_op(0, Op::kAllreduce);
  const auto s = trace.snapshot();
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.bytes, 24u);
  EXPECT_EQ(s.copies, 1u);
  EXPECT_EQ(s.copied_bytes, 24u);
  EXPECT_EQ(s.op(Op::kAllreduce), 2u);
  EXPECT_TRUE(s.sent_bytes_by_rank.empty());
  EXPECT_EQ(s.max_sent_by_any_rank(), 0u);
}

TEST(Trace, ResetZeroesEveryRankBlock) {
  // A job's trace is re-armed with reset() at each epoch.
  CommTrace trace(3);
  for (int r = 0; r < 3; ++r) {
    trace.count_message(r, 8u * static_cast<std::uint64_t>(r + 1));
    trace.count_copy(r, 8);
    trace.count_op(r, Op::kBarrier);
  }
  auto s = trace.snapshot();
  EXPECT_EQ(s.sent_bytes_by_rank, (std::vector<std::uint64_t>{8, 16, 24}));
  EXPECT_EQ(s.copies, 3u);
  EXPECT_EQ(s.op(Op::kBarrier), 3u);
  trace.reset();
  s = trace.snapshot();
  EXPECT_EQ(s.messages, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.copies, 0u);
  EXPECT_EQ(s.copied_bytes, 0u);
  EXPECT_EQ(s.op(Op::kBarrier), 0u);
  EXPECT_EQ(s.sent_bytes_by_rank, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(Spmd, BarrierSynchronizes) {
  // Classic flag test: every rank writes before the barrier; after the
  // barrier every rank must observe all writes.
  constexpr int kP = 6;
  std::vector<std::atomic<int>> flags(kP);
  spmd_run(kP, [&](Process& p) {
    flags[static_cast<std::size_t>(p.rank())].store(1);
    p.barrier();
    for (int r = 0; r < kP; ++r) EXPECT_EQ(flags[static_cast<std::size_t>(r)].load(), 1);
  });
}

TEST(Spmd, ManyRanksOversubscribed) {
  // More ranks than cores: blocking receives must not busy-deadlock.
  constexpr int kP = 32;
  const auto results = spmd_collect<int>(kP, [](Process& p) {
    // Ring: pass rank 0's token all the way around.
    if (p.rank() == 0) {
      p.send_value(1 % p.size(), 0, 7);
      return p.recv_value<int>(p.size() - 1, 0);
    }
    const int token = p.recv_value<int>(p.rank() - 1, 0);
    p.send_value((p.rank() + 1) % p.size(), 0, token);
    return token;
  });
  for (int v : results) EXPECT_EQ(v, 7);
}

// --------------------------------------------------------------- topology --

TEST(CartGrid2D, NearSquareFactorization) {
  const auto g16 = CartGrid2D::near_square(16);
  EXPECT_EQ(g16.npx() * g16.npy(), 16);
  EXPECT_EQ(g16.npx(), 4);
  EXPECT_EQ(g16.npy(), 4);
  const auto g12 = CartGrid2D::near_square(12);
  EXPECT_EQ(g12.npx() * g12.npy(), 12);
  EXPECT_LE(g12.npy(), g12.npx());
  EXPECT_EQ(g12.npy(), 3);
  const auto g7 = CartGrid2D::near_square(7);  // prime -> 7x1
  EXPECT_EQ(g7.npx(), 7);
  EXPECT_EQ(g7.npy(), 1);
}

TEST(CartGrid2D, RankCoordsRoundtrip) {
  const CartGrid2D g(3, 4);
  for (int r = 0; r < g.size(); ++r) {
    const auto [px, py] = g.coords_of(r);
    EXPECT_EQ(g.rank_of(px, py), r);
  }
}

TEST(CartGrid2D, NeighborsAndBoundaries) {
  const CartGrid2D g(3, 3);
  const int center = g.rank_of(1, 1);
  EXPECT_EQ(g.north(center), g.rank_of(0, 1));
  EXPECT_EQ(g.south(center), g.rank_of(2, 1));
  EXPECT_EQ(g.west(center), g.rank_of(1, 0));
  EXPECT_EQ(g.east(center), g.rank_of(1, 2));
  EXPECT_EQ(g.north(g.rank_of(0, 0)), kNoNeighbor);
  EXPECT_EQ(g.west(g.rank_of(0, 0)), kNoNeighbor);
  EXPECT_EQ(g.south(g.rank_of(2, 2)), kNoNeighbor);
  EXPECT_EQ(g.east(g.rank_of(2, 2)), kNoNeighbor);
}

TEST(CartGrid2D, NeighborRelationIsSymmetric) {
  const CartGrid2D g(4, 5);
  for (int r = 0; r < g.size(); ++r) {
    if (g.north(r) != kNoNeighbor) {
      EXPECT_EQ(g.south(g.north(r)), r);
    }
    if (g.east(r) != kNoNeighbor) {
      EXPECT_EQ(g.west(g.east(r)), r);
    }
  }
}

TEST(CartGrid3D, NearCubicFactorization) {
  const auto g8 = CartGrid3D::near_cubic(8);
  EXPECT_EQ(g8.npx() * g8.npy() * g8.npz(), 8);
  EXPECT_EQ(g8.npx(), 2);
  EXPECT_EQ(g8.npy(), 2);
  EXPECT_EQ(g8.npz(), 2);
  const auto g12 = CartGrid3D::near_cubic(12);
  EXPECT_EQ(g12.npx() * g12.npy() * g12.npz(), 12);
}

TEST(CartGrid3D, RankCoordsRoundtripAndNeighbors) {
  const CartGrid3D g(2, 3, 4);
  for (int r = 0; r < g.size(); ++r) {
    const auto c = g.coords_of(r);
    EXPECT_EQ(g.rank_of(c[0], c[1], c[2]), r);
  }
  const int r0 = g.rank_of(0, 1, 2);
  EXPECT_EQ(g.neighbor(r0, 0, +1), g.rank_of(1, 1, 2));
  EXPECT_EQ(g.neighbor(r0, 0, -1), kNoNeighbor);
  EXPECT_EQ(g.neighbor(r0, 1, -1), g.rank_of(0, 0, 2));
  EXPECT_EQ(g.neighbor(r0, 2, +1), g.rank_of(0, 1, 3));
}

}  // namespace
