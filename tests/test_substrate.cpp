// Tests for the fast-path message substrate: per-source mailbox lanes
// (wildcard FIFO semantics, targeted wakeups, abort), shared-buffer
// zero-copy payloads, and the scalability properties of the rewritten
// collectives (no rank-0 bottleneck, O(1) payload copies per rank in
// broadcast). These pin exactly the semantics the lane/zero-copy design
// must preserve from the single-deque substrate, plus the lane internals
// behind them: parking and wakeup, per-tag FIFO across the lane's envelope
// blocks and its stash, and reset.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "mpl/mailbox.hpp"
#include "mpl/message.hpp"
#include "mpl/process.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa::mpl;

Envelope make_env(int source, int tag, int value) {
  return Envelope{source, tag, pack_payload(std::span<const int>(&value, 1))};
}

int env_value(const Envelope& env) {
  return unpack<int>(env.payload).front();
}

// ----------------------------------------------------------------- payload --

TEST(Payload, SmallMessagesAreInline) {
  std::vector<char> small(Payload::kInlineBytes, 'a');
  const auto p = pack_payload(std::span<const char>(small));
  EXPECT_TRUE(p.inline_storage());
  EXPECT_EQ(p.size(), Payload::kInlineBytes);
  EXPECT_EQ(unpack<char>(p), small);
}

TEST(Payload, LargeMessagesAreHeapShared) {
  std::vector<char> big(Payload::kInlineBytes + 1, 'b');
  const auto p = pack_payload(std::span<const char>(big));
  EXPECT_FALSE(p.inline_storage());
  EXPECT_EQ(unpack<char>(p), big);
}

TEST(Payload, CopyingSharesTheHeapBuffer) {
  std::vector<double> big(1024, 3.5);
  const auto p = pack_payload(std::span<const double>(big));
  const Payload q = p;  // refcount bump, not a deep copy
  EXPECT_EQ(q.bytes().data(), p.bytes().data());
  EXPECT_EQ(unpack<double>(q), big);
}

TEST(Payload, AdoptTakesTheVectorBufferWithoutCopying) {
  std::vector<int> big(1024);
  std::iota(big.begin(), big.end(), 0);
  const int* raw = big.data();
  const auto p = Payload::adopt(std::move(big));
  EXPECT_EQ(reinterpret_cast<const int*>(p.bytes().data()), raw);
  EXPECT_EQ(payload_view<int>(p)[17], 17);
}

TEST(Payload, UnpackIntoAndView) {
  const std::vector<int> xs{1, 2, 3, 4, 5};
  const auto p = pack_payload(std::span<const int>(xs));
  std::vector<int> out(5, 0);
  EXPECT_EQ(unpack_into<int>(p, std::span<int>(out)), 5u);
  EXPECT_EQ(out, xs);
  const auto view = payload_view<int>(p);
  EXPECT_EQ(std::vector<int>(view.begin(), view.end()), xs);
}

// ----------------------------------------------------- wildcard FIFO order --

TEST(MailboxLanes, WildcardSourceReturnsGlobalArrivalOrder) {
  Mailbox box(4);
  box.push(make_env(2, 0, 10));
  box.push(make_env(0, 0, 11));
  box.push(make_env(2, 0, 12));
  box.push(make_env(1, 0, 13));
  EXPECT_EQ(env_value(box.pop(kAnySource, 0)), 10);
  EXPECT_EQ(env_value(box.pop(kAnySource, 0)), 11);
  EXPECT_EQ(env_value(box.pop(kAnySource, 0)), 12);
  EXPECT_EQ(env_value(box.pop(kAnySource, 0)), 13);
}

TEST(MailboxLanes, WildcardTagIsFifoWithinSource) {
  Mailbox box(2);
  box.push(make_env(0, 5, 1));
  box.push(make_env(0, 9, 2));
  box.push(make_env(0, 5, 3));
  EXPECT_EQ(env_value(box.pop(0, kAnyTag)), 1);
  EXPECT_EQ(env_value(box.pop(0, kAnyTag)), 2);
  EXPECT_EQ(env_value(box.pop(0, kAnyTag)), 3);
}

TEST(MailboxLanes, DoubleWildcardDrainsInArrivalOrder) {
  Mailbox box(3);
  box.push(make_env(1, 7, 1));
  box.push(make_env(0, 3, 2));
  box.push(make_env(2, 9, 3));
  EXPECT_EQ(env_value(box.pop(kAnySource, kAnyTag)), 1);
  EXPECT_EQ(env_value(box.pop(kAnySource, kAnyTag)), 2);
  EXPECT_EQ(env_value(box.pop(kAnySource, kAnyTag)), 3);
}

TEST(MailboxLanes, WildcardSkipsNonMatchingTagsButKeepsPerTagFifo) {
  Mailbox box(2);
  box.push(make_env(0, 1, 10));
  box.push(make_env(1, 2, 20));
  box.push(make_env(0, 2, 30));
  EXPECT_EQ(env_value(box.pop(kAnySource, 2)), 20);
  EXPECT_EQ(env_value(box.pop(kAnySource, 2)), 30);
  EXPECT_EQ(env_value(box.pop(kAnySource, 1)), 10);
}

TEST(MailboxLanes, TaggedMatchScansOnlyThatLane) {
  Mailbox box(2);
  // A deep backlog from source 0 must not slow or disturb a match on
  // source 1 (behavioral part: the source-1 message is found first try).
  for (int i = 0; i < 1000; ++i) box.push(make_env(0, 0, i));
  box.push(make_env(1, 0, 4242));
  EXPECT_EQ(env_value(box.pop(1, 0)), 4242);
  EXPECT_EQ(box.pending(), 1000u);
}

TEST(MailboxLanes, SourcesBeyondPresizedTableGrowOnDemand) {
  Mailbox box(2);
  box.push(make_env(9, 0, 99));  // beyond nsenders, within the minimum table
  EXPECT_EQ(env_value(box.pop(9, 0)), 99);
  box.push(make_env(500, 1, 77));  // far beyond the table: overflow map
  box.push(make_env(500, 1, 78));
  EXPECT_EQ(env_value(box.pop(500, 1)), 77);
  EXPECT_EQ(env_value(box.pop(kAnySource, kAnyTag)), 78);
}

TEST(MailboxLanes, BlockedWildcardReceiverSeesLateArrival) {
  Mailbox box(4);
  std::thread sender([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(make_env(3, 0, 7));
  });
  EXPECT_EQ(env_value(box.pop(kAnySource, 0)), 7);
  sender.join();
}

TEST(MailboxLanes, PushToOneLaneDoesNotWakeOtherLanes) {
  Mailbox box(8);
  constexpr int kIdle = 6;
  std::atomic<int> released{0};
  std::vector<std::thread> idlers;
  idlers.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idlers.emplace_back([&box, &released, i] {
      try {
        (void)box.pop(i + 2, 0);  // sources that never send
      } catch (const WorldAborted&) {
        released.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Stream messages to lane 0; idle receivers on lanes 2..7 must not wake.
  for (int i = 0; i < 500; ++i) box.push(make_env(0, 0, i));
  for (int i = 0; i < 500; ++i) EXPECT_EQ(env_value(box.pop(0, 0)), i);
  // The receiver in this thread popped as messages arrived; allow a small
  // number of wakeups that lost the race, but nothing like the 500 × 6
  // storm the single-deque design produced.
  EXPECT_LE(box.futile_wakeups(), 50u);
  box.abort();
  for (auto& t : idlers) t.join();
  EXPECT_EQ(released.load(), kIdle);
}

TEST(MailboxLanes, AbortReleasesTargetedAndWildcardWaiters) {
  Mailbox box(4);
  std::atomic<int> released{0};
  std::thread targeted([&box, &released] {
    try {
      (void)box.pop(1, 0);
    } catch (const WorldAborted&) {
      released.fetch_add(1);
    }
  });
  std::thread wildcard([&box, &released] {
    try {
      (void)box.pop(kAnySource, kAnyTag);
    } catch (const WorldAborted&) {
      released.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.abort();
  targeted.join();
  wildcard.join();
  EXPECT_EQ(released.load(), 2);
}

TEST(MailboxLanes, TryPopWildcardHonorsArrivalOrder) {
  Mailbox box(2);
  Envelope env;
  EXPECT_FALSE(box.try_pop(kAnySource, kAnyTag, env));
  box.push(make_env(1, 0, 1));
  box.push(make_env(0, 0, 2));
  EXPECT_TRUE(box.try_pop(kAnySource, kAnyTag, env));
  EXPECT_EQ(env_value(env), 1);
}

TEST(MailboxLanes, ManyProducerWildcardOrderUnderConcurrentLoad) {
  // Stress regression for the wildcard ordering race: while producers are
  // pushing concurrently, successive kAnySource receives must observe
  // strictly increasing arrival sequence numbers (a receive never returns a
  // later arrival while an earlier one is in flight), and interleaved
  // lane-targeted receives must still see per-source FIFO. The fix this
  // pins: push stamps the arrival seq inside the lane critical section and
  // the wildcard search rescans until stable; previously a stamped-but-not-
  // yet-queued message could be overtaken by a later arrival.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 1500;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    Mailbox box(kProducers);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int s = 0; s < kProducers; ++s) {
      producers.emplace_back([&box, s] {
        for (int i = 0; i < kPerProducer; ++i) box.push(make_env(s, 0, i));
      });
    }
    std::uint64_t last_seq = 0;
    bool first = true;
    int next_from_zero = 0;  // targeted receives from source 0: FIFO check
    int received = 0;
    const int total = kProducers * kPerProducer;
    while (received < total) {
      // Interleave a lane-targeted receive among the wildcard receives.
      if (received % 16 == 7 && next_from_zero < kPerProducer) {
        EXPECT_EQ(env_value(box.pop(0, 0)), next_from_zero++);
        ++received;
        continue;
      }
      const Envelope env = box.pop(kAnySource, 0);
      if (env.source == 0) {
        EXPECT_EQ(env_value(env), next_from_zero++);
      }
      if (!first) {
        EXPECT_GT(env.seq, last_seq)
            << "wildcard receive returned an earlier arrival after a later one";
      }
      last_seq = env.seq;
      first = false;
      ++received;
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(box.pending(), 0u);
  }
}

TEST(MailboxLanes, ConcurrentSendersPreserveEachSourcesFifo) {
  constexpr int kSenders = 4;
  constexpr int kMsgs = 2000;
  Mailbox box(kSenders);
  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&box, s] {
      for (int i = 0; i < kMsgs; ++i) box.push(make_env(s, 0, i));
    });
  }
  for (auto& t : senders) t.join();
  for (int s = 0; s < kSenders; ++s) {
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_EQ(env_value(box.pop(s, 0)), i);
    }
  }
}

// ------------------------------------------------ lane blocks and parking --

TEST(MailboxLanes, ParkedReceiverIsWokenBySinglePush) {
  // Each round the receiver waits well past its spin window and parks;
  // one push must wake it. A lost wakeup shows as a round that does not
  // complete within the deadline (the box is then aborted so the receiver
  // thread exits and the failure is reported rather than hung).
  constexpr int kRounds = 200;
  for (const bool wildcard : {false, true}) {
    Mailbox box(2);
    std::atomic<int> received{0};
    std::thread receiver([&] {
      try {
        for (int r = 0; r < kRounds; ++r) {
          const Envelope env = wildcard ? box.pop(kAnySource, 3) : box.pop(1, 3);
          EXPECT_EQ(env_value(env), r);
          received.store(r + 1, std::memory_order_release);
        }
      } catch (const WorldAborted&) {
      }
    });
    for (int r = 0; r < kRounds; ++r) {
      std::this_thread::sleep_for(std::chrono::microseconds(1000));
      box.push(make_env(1, 3, r));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (received.load(std::memory_order_acquire) < r + 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (received.load(std::memory_order_acquire) < r + 1) {
        ADD_FAILURE() << (wildcard ? "wildcard" : "exact")
                      << " receiver missed the wakeup in round " << r;
        box.abort();
        break;
      }
    }
    receiver.join();
    EXPECT_EQ(box.pending(), 0u);
  }
}

TEST(MailboxLanes, PerTagFifoHoldsAcrossBlockBoundaries) {
  // Far more envelopes than one lane block holds, three tags interleaved:
  // draining one tag at a time moves the others into the lane's stash, and
  // each tag must still come out in push order (exact and wildcard-source
  // receives alike).
  constexpr int kPerTag = 40;
  Mailbox box(2);
  for (int i = 0; i < kPerTag; ++i) {
    for (int tag = 0; tag < 3; ++tag) box.push(make_env(1, tag, tag * 1000 + i));
  }
  EXPECT_EQ(box.pending(), 3u * kPerTag);
  for (int i = 0; i < kPerTag; ++i) EXPECT_EQ(env_value(box.pop(1, 0)), i);
  for (int i = 0; i < kPerTag; ++i) {
    EXPECT_EQ(env_value(box.pop(kAnySource, 1)), 1000 + i);
  }
  for (int i = 0; i < kPerTag; ++i) EXPECT_EQ(env_value(box.pop(1, 2)), 2000 + i);
  EXPECT_EQ(box.pending(), 0u);
  Envelope env;
  EXPECT_FALSE(box.try_pop(1, kAnyTag, env));
}

TEST(MailboxLanes, ResetDiscardsPublishedAndStashedEnvelopes) {
  Mailbox box(2);
  // Source 0: receiving tag 2 moves the two tag-1 envelopes into the
  // stash. Source 1: published and never taken.
  box.push(make_env(0, 1, 10));
  box.push(make_env(0, 1, 11));
  box.push(make_env(0, 2, 12));
  EXPECT_EQ(env_value(box.pop(0, 2)), 12);
  for (int i = 0; i < 20; ++i) box.push(make_env(1, 1, 100 + i));
  EXPECT_EQ(box.pending(), 22u);
  box.reset();
  EXPECT_EQ(box.pending(), 0u);
  Envelope env;
  EXPECT_FALSE(box.try_pop(0, 1, env));
  EXPECT_FALSE(box.try_pop(kAnySource, kAnyTag, env));
  box.push(make_env(1, 1, 7));
  box.push(make_env(0, 1, 8));
  const Envelope first = box.pop(kAnySource, 1);
  EXPECT_EQ(env_value(first), 7);
  EXPECT_EQ(first.seq, 0u);  // arrival numbering restarted
  EXPECT_EQ(env_value(box.pop(0, 1)), 8);
  EXPECT_EQ(box.pending(), 0u);
}

// -------------------------------------------------------- spmd-level paths --

TEST(SpmdSubstrate, RecvIntoFillsCallerBuffer) {
  spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> data(256);
      std::iota(data.begin(), data.end(), 0);
      p.send(1, 0, data);
    } else {
      std::vector<int> out(256, -1);
      EXPECT_EQ(p.recv_into(0, 0, std::span<int>(out)), 256u);
      EXPECT_EQ(out[255], 255);
    }
  });
}

TEST(SpmdSubstrate, RecvBorrowExposesPayloadWithoutCopy) {
  spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<double> data(512, 2.5);
      p.send(1, 0, std::move(data));
    } else {
      const auto msg = p.recv_borrow<double>(0, 0);
      EXPECT_EQ(msg.source(), 0);
      EXPECT_EQ(msg.view().size(), 512u);
      EXPECT_DOUBLE_EQ(msg.view()[100], 2.5);
    }
  });
}

TEST(SpmdSubstrate, MoveSendPreservesIsolation) {
  // Adopted buffers are immutable shared payloads; the receiver's copy must
  // be independent of anything the sender does afterwards.
  spmd_run(2, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> buf{1, 2, 3};
      p.send(1, 0, std::move(buf));
      buf.assign(3, 999);  // moved-from then reused: must not affect receiver
      p.barrier();
    } else {
      p.barrier();
      EXPECT_EQ(p.recv<int>(0, 0), (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(SpmdSubstrate, BroadcastPerformsO1PayloadCopiesPerRank) {
  constexpr int kP = 8;
  constexpr std::size_t kBytes = 1u << 20;
  TraceSnapshot trace;
  spmd_collect<int>(
      kP,
      [](Process& p) {
        std::vector<double> data(p.rank() == 0 ? kBytes / sizeof(double) : 0, 1.5);
        p.broadcast(data, 0);
        EXPECT_EQ(data.size(), kBytes / sizeof(double));
        return 0;
      },
      &trace);
  // One pack at the root + one unpack per non-root = p payload copies.
  // The pre-zero-copy substrate re-packed at every binomial tree level
  // (2 · (p-1) payload copies ≈ 14 here). Allow headroom for the tiny
  // bookkeeping copies but pin the O(1)-per-rank property.
  EXPECT_LE(trace.copied_bytes, static_cast<std::uint64_t>(kBytes) * (kP + 1));
  // Logical traffic is unchanged: p-1 messages of kBytes each.
  EXPECT_EQ(trace.messages, static_cast<std::uint64_t>(kP - 1));
  EXPECT_EQ(trace.bytes, static_cast<std::uint64_t>(kBytes) * (kP - 1));
}

TEST(SpmdSubstrate, AllgatherHasNoRootSendBottleneck) {
  constexpr int kP = 8;
  constexpr std::size_t kN = 1u << 15;  // 256 KiB of doubles per rank
  TraceSnapshot trace;
  spmd_collect<int>(
      kP,
      [](Process& p) {
        const std::vector<double> mine(kN, p.rank());
        const auto all = p.allgather(std::span<const double>(mine));
        EXPECT_EQ(all.size(), kN * kP);
        return 0;
      },
      &trace);
  // With gather-to-root + two broadcasts, rank 0 pushed the whole p·n
  // result to each of its log2(p) binomial children — ~log2(p)·p·n bytes
  // (24 blocks here) from one sender. Recursive doubling balances the
  // volume: every rank sends exactly p-1 blocks (7 here, plus 16-byte
  // record headers). Pin the balanced bound.
  const std::uint64_t block = kN * sizeof(double);
  EXPECT_GT(trace.max_sent_by_any_rank(), 0u);
  EXPECT_LE(trace.max_sent_by_any_rank(), block * (kP - 1) + 4096);
}

TEST(SpmdSubstrate, AllreduceVecHasBalancedSendersAtScale) {
  constexpr int kP = 8;
  constexpr std::size_t kN = 1u << 15;
  TraceSnapshot trace;
  spmd_collect<int>(
      kP,
      [](Process& p) {
        const std::vector<double> mine(kN, 1.0);
        const auto sum = p.allreduce_vec(std::span<const double>(mine), SumOp{});
        EXPECT_DOUBLE_EQ(sum[kN / 2], static_cast<double>(kP));
        return 0;
      },
      &trace);
  // Ring reduce-scatter + allgather: every rank sends exactly
  // 2·(p-1)·(n/p) elements. The old root reduction had rank 0 receive
  // (p-1)·n and send ~n·(p-1) via broadcast re-packs.
  const std::uint64_t total = trace.bytes;
  const std::uint64_t max_rank = trace.max_sent_by_any_rank();
  EXPECT_LT(max_rank, total / (kP / 2));  // no rank dominates
}

TEST(SpmdSubstrate, AllreduceVecRingMatchesSmallVectorPath) {
  // Same data through both code paths (size above / below the ring
  // threshold) must give identical sums for exactly-representable values.
  for (const int p : {3, 4, 7, 8}) {
    const std::size_t big = 4096, small = 16;
    auto run = [p](std::size_t n) {
      return spmd_collect<std::vector<double>>(p, [n](Process& proc) {
        std::vector<double> mine(n);
        for (std::size_t i = 0; i < n; ++i) {
          mine[i] = static_cast<double>((proc.rank() + 1) * (i % 13));
        }
        return proc.allreduce_vec(std::span<const double>(mine), SumOp{});
      });
    };
    const auto big_results = run(big);
    const auto small_results = run(small);
    const double scale = p * (p + 1) / 2.0;
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < small; ++i) {
        EXPECT_DOUBLE_EQ(small_results[static_cast<std::size_t>(r)][i],
                         scale * static_cast<double>(i % 13));
      }
      for (std::size_t i = 0; i < big; i += 97) {
        EXPECT_DOUBLE_EQ(big_results[static_cast<std::size_t>(r)][i],
                         scale * static_cast<double>(i % 13));
      }
    }
  }
}

TEST(SpmdSubstrate, ReductionOrderIsDeterministicAcrossRuns) {
  // Floating-point sums are association-sensitive; identical results across
  // runs (bitwise, per rank) pin the deterministic combination order of
  // both the ring path (large vectors) and the binomial+broadcast path
  // (scalars) for power-of-two and non-power-of-two world sizes.
  for (const int p : {5, 8}) {
    auto run = [p] {
      return spmd_collect<std::vector<double>>(p, [](Process& proc) {
        std::vector<double> mine(3000);
        for (std::size_t i = 0; i < mine.size(); ++i) {
          mine[i] = 1.0 / static_cast<double>(1 + proc.rank() + i);
        }
        auto vec = proc.allreduce_vec(std::span<const double>(mine), SumOp{});
        vec.push_back(proc.allreduce(mine[0], SumOp{}));
        vec.push_back(proc.reduce(mine[1], SumOp{}, 0));
        return vec;
      });
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first, second) << "world size " << p;
  }
}

TEST(SpmdSubstrate, WildcardReceiveFifoUnderSpmd) {
  // Per-(source,tag) FIFO must survive wildcard receives: messages from the
  // same source must be seen in send order even via kAnySource.
  static constexpr int kP = 4;
  static constexpr int kMsgs = 50;
  spmd_run(kP, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> next_expected(kP, 0);
      for (int i = 0; i < (kP - 1) * kMsgs; ++i) {
        auto [src, data] = p.recv_any<int>(kAnySource, 3);
        ASSERT_EQ(data.size(), 1u);
        EXPECT_EQ(data.front(), next_expected[static_cast<std::size_t>(src)]++);
      }
      for (int s = 1; s < kP; ++s) {
        EXPECT_EQ(next_expected[static_cast<std::size_t>(s)], kMsgs);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) p.send_value(0, 3, i);
    }
  });
}

TEST(SpmdSubstrate, AbortPropagatesOutOfCollectives) {
  EXPECT_THROW(spmd_run(6,
                        [](Process& p) {
                          if (p.rank() == 3) throw std::runtime_error("kaboom");
                          // Other ranks block in a collective that can never
                          // complete; they must be released, not deadlock.
                          std::vector<double> v(1024, 1.0);
                          (void)p.allreduce_vec(std::span<const double>(v), SumOp{});
                          p.barrier();
                        }),
               std::runtime_error);
}

}  // namespace
