// Tests for the multi-block mesh substrate (meshspectral/blockset.hpp +
// blockplan.hpp): layout indexing, block→rank distributions, halo
// correctness across blocks and ranks (periodic and not, corners and not,
// self-wrap), batched one-message-per-peer rounds, bitwise equivalence of
// arbitrary distributions (oversubscribed / non-divisible / imbalanced) to
// a single-rank reference, the N=1 parity with ExchangePlan2D, the sparse
// allocation protocol (piggybacked wake-up, zero-filled halos from
// unallocated neighbors, deallocation sweep), block-decomposed gather /
// scatter round trips, and the typed shape-mismatch guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa;
using mesh::BlockExchangeOptions;
using mesh::BlockExchangePlan2D;
using mesh::BlockLayout2D;
using mesh::BlockSet;

/// Cell tag, offset so no in-domain cell collides with the 0.0 sentinel
/// that zero-initialized ghosts hold.
double tagval(std::size_t gi, std::size_t gj) {
  return static_cast<double>(gi) * 1000.0 + static_cast<double>(gj) + 7.0;
}

std::size_t wrap(std::ptrdiff_t v, std::size_t n) {
  const auto m = static_cast<std::ptrdiff_t>(n);
  return static_cast<std::size_t>(((v % m) + m) % m);
}

BlockLayout2D make_layout(std::size_t nx, std::size_t ny, int nbx, int nby,
                          mesh::Periodicity periodic) {
  BlockLayout2D layout;
  layout.global_nx = nx;
  layout.global_ny = ny;
  layout.nbx = nbx;
  layout.nby = nby;
  layout.ghost = 1;
  layout.periodic = periodic;
  return layout;
}

/// Check every ghost cell of one block after an exchange of tagval data
/// (times `scale`): in-domain ghosts (wrapping periodic axes) must hold the
/// owning cell's tag; out-of-domain ghosts — and corner ghosts when
/// `corners` is off — must still hold the 0.0 the allocation zero-filled.
void expect_block_ghosts(const mesh::MeshBlock<double>& b,
                         const BlockLayout2D& layout, bool corners,
                         double scale = 1.0) {
  const auto& g = b.grid();
  const auto nx = static_cast<std::ptrdiff_t>(g.nx());
  const auto ny = static_cast<std::ptrdiff_t>(g.ny());
  for (std::ptrdiff_t i = -1; i < nx + 1; ++i) {
    for (std::ptrdiff_t j = -1; j < ny + 1; ++j) {
      const bool gx = (i < 0 || i >= nx);
      const bool gy = (j < 0 || j >= ny);
      if (!gx && !gy) continue;
      const auto gi = static_cast<std::ptrdiff_t>(b.x_range().lo) + i;
      const auto gj = static_cast<std::ptrdiff_t>(b.y_range().lo) + j;
      const bool in_x =
          gi >= 0 && gi < static_cast<std::ptrdiff_t>(layout.global_nx);
      const bool in_y =
          gj >= 0 && gj < static_cast<std::ptrdiff_t>(layout.global_ny);
      const bool covered = (!gx || in_x || layout.periodic.x) &&
                           (!gy || in_y || layout.periodic.y) &&
                           (corners || !gx || !gy);
      if (!covered) {
        EXPECT_EQ(g(i, j), 0.0) << "block " << b.id() << " ghost (" << i
                                << "," << j << ") touched";
        continue;
      }
      const std::size_t wi = layout.periodic.x
                                 ? wrap(gi, layout.global_nx)
                                 : static_cast<std::size_t>(gi);
      const std::size_t wj = layout.periodic.y
                                 ? wrap(gj, layout.global_ny)
                                 : static_cast<std::size_t>(gj);
      EXPECT_EQ(g(i, j), scale * tagval(wi, wj))
          << "block " << b.id() << " ghost (" << i << "," << j << ")";
    }
  }
}

/// Run `steps` of a periodic 5-point Jacobi sweep on the given block
/// distribution and gather the result on root (a bitwise fingerprint of
/// the whole schedule: halo routing, batching, and update order). The
/// run's trace goes to `trace` when given.
Array2D<double> jacobi_fingerprint(const BlockLayout2D& layout,
                                   const std::vector<int>& owner, int nprocs,
                                   int steps,
                                   mpl::TraceSnapshot* trace = nullptr) {
  Array2D<double> out;
  const auto snapshot = mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank());
    BlockSet<double> v(layout, owner, p.rank());
    u.init_from_global(tagval);
    BlockExchangePlan2D plan(u);
    for (int s = 0; s < steps; ++s) {
      plan.exchange_all(p, u);
      for (std::size_t b = 0; b < u.size(); ++b) {
        const auto& g = u.block(b).grid();
        auto& w = v.block(b).grid();
        mesh::for_interior(g, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
          w(i, j) = 0.25 * (g(i - 1, j) + g(i + 1, j) + g(i, j - 1) +
                            g(i, j + 1));
        });
      }
      std::swap(u, v);
    }
    auto dense = mesh::gather_blocks(p, u, 0);
    if (p.rank() == 0) out = std::move(dense);
  });
  if (trace != nullptr) *trace = snapshot;
  return out;
}

// ---------------------------------------------------------------------------
// Layout and distributions.

TEST(BlockLayout, IndexingRoundTripsAndRangesTileTheDomain) {
  const auto layout = make_layout(11, 7, 3, 2, {false, false});
  EXPECT_EQ(layout.nblocks(), 6);
  std::vector<bool> cell(11 * 7, false);
  for (int bx = 0; bx < layout.nbx; ++bx) {
    for (int by = 0; by < layout.nby; ++by) {
      const int id = layout.id_of(bx, by);
      EXPECT_EQ(layout.bx_of(id), bx);
      EXPECT_EQ(layout.by_of(id), by);
      for (std::size_t i = layout.x_range(bx).lo; i < layout.x_range(bx).hi;
           ++i) {
        for (std::size_t j = layout.y_range(by).lo; j < layout.y_range(by).hi;
             ++j) {
          EXPECT_FALSE(cell[i * 7 + j]) << "cell covered twice";
          cell[i * 7 + j] = true;
        }
      }
    }
  }
  for (const bool c : cell) EXPECT_TRUE(c);
}

TEST(BlockDistribute, ContiguousAndRoundRobinCoverEveryBlockAndRank) {
  for (const int nblocks : {4, 7, 16}) {
    for (const int nranks : {1, 3, 4}) {
      for (const auto& owner :
           {mesh::distribute_blocks_contiguous(nblocks, nranks),
            mesh::distribute_blocks_round_robin(nblocks, nranks)}) {
        ASSERT_EQ(owner.size(), static_cast<std::size_t>(nblocks));
        std::vector<int> per_rank(static_cast<std::size_t>(nranks), 0);
        for (const int r : owner) {
          ASSERT_GE(r, 0);
          ASSERT_LT(r, nranks);
          ++per_rank[static_cast<std::size_t>(r)];
        }
        if (nblocks >= nranks) {
          for (const int c : per_rank) EXPECT_GE(c, 1);
        }
        // Balanced to within one block.
        const auto [lo, hi] =
            std::minmax_element(per_rank.begin(), per_rank.end());
        EXPECT_LE(*hi - *lo, 1);
      }
    }
  }
}

TEST(BlockSet, TracksAllocationAndStorage) {
  const auto layout = make_layout(8, 8, 2, 2, {false, false});
  BlockSet<double> s(layout, mesh::distribute_blocks_contiguous(4, 1), 0,
                     /*allocate_all=*/false);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.allocated_count(), 0u);
  EXPECT_EQ(s.storage_bytes(), 0u);
  s.block(1).allocate();
  EXPECT_EQ(s.allocated_count(), 1u);
  EXPECT_EQ(s.storage_bytes(), 6u * 6u * sizeof(double));
  EXPECT_EQ(s.dense_bytes(), 4u * 6u * 6u * sizeof(double));
  s.block(1).deallocate();
  EXPECT_EQ(s.storage_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Halo correctness.

TEST(BlockHalo, GhostsCorrectAcrossBlocksAndRanksNonPeriodic) {
  const auto layout = make_layout(10, 9, 4, 3, {false, false});
  const auto owner = mesh::distribute_blocks_contiguous(12, 3);
  mpl::spmd_run(3, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank());
    u.init_from_global(tagval);
    BlockExchangePlan2D plan(u);
    plan.exchange_all(p, u);
    for (const auto& b : u) expect_block_ghosts(b, layout, /*corners=*/false);
  });
}

TEST(BlockHalo, GhostsCorrectFullyPeriodicWithCorners) {
  const auto layout = make_layout(10, 9, 4, 3, {true, true});
  const auto owner = mesh::distribute_blocks_round_robin(12, 3);
  mpl::spmd_run(3, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank());
    u.init_from_global(tagval);
    BlockExchangePlan2D plan(
        u, BlockExchangeOptions{/*corners=*/true, 0, false, 0.0});
    plan.exchange_all(p, u);
    for (const auto& b : u) expect_block_ghosts(b, layout, /*corners=*/true);
  });
}

TEST(BlockHalo, SingleBlockSelfWrapsPeriodicAxes) {
  const auto layout = make_layout(6, 5, 1, 1, {true, true});
  mpl::spmd_run(1, [&](mpl::Process& p) {
    BlockSet<double> u(layout, {0}, 0);
    u.init_from_global(tagval);
    BlockExchangePlan2D plan(
        u, BlockExchangeOptions{/*corners=*/true, 0, false, 0.0});
    EXPECT_EQ(plan.off_rank_message_count(), 0u);
    plan.exchange_all(p, u);
    for (const auto& b : u) expect_block_ghosts(b, layout, /*corners=*/true);
  });
}

// ---------------------------------------------------------------------------
// Round ordering. Each plan rides its own channels (one per tag block, peer
// and direction), and the scalar collectives ride theirs, so rounds and
// collectives may interleave in any SPMD-consistent order.

TEST(BlockOrdering, TwoPlansOnDistinctTagBlocksEndInReverseOrder) {
  const auto layout = make_layout(12, 10, 4, 3, {true, false});
  for (const int np : {2, 3, 4}) {
    const auto owner = mesh::distribute_blocks_round_robin(12, np);
    mpl::spmd_run(np, [&](mpl::Process& p) {
      BlockSet<double> u(layout, owner, p.rank());
      BlockSet<double> w(layout, owner, p.rank());
      BlockExchangePlan2D a(u, BlockExchangeOptions{false, /*tag_block=*/0});
      BlockExchangePlan2D b(w, BlockExchangeOptions{true, /*tag_block=*/1});
      for (int round = 1; round <= 5; ++round) {
        // Fresh interiors every round, so a ghost from an older round (or
        // from the other plan) would show.
        u.init_from_global([&](std::size_t i, std::size_t j) {
          return round * tagval(i, j);
        });
        w.init_from_global([&](std::size_t i, std::size_t j) {
          return -round * tagval(i, j);
        });
        a.begin_exchange_all(p, u);
        b.begin_exchange_all(p, w);
        b.end_exchange_all(p, w);
        a.end_exchange_all(p, u);
        for (const auto& blk : u) {
          expect_block_ghosts(blk, layout, false, round);
        }
        for (const auto& blk : w) {
          expect_block_ghosts(blk, layout, true, -round);
        }
      }
    });
  }
}

TEST(BlockOrdering, AllreduceBetweenBeginAndEndAtThreeRanks) {
  // euler2d's step order: begin the halo round, allreduce the dt (at np=3
  // a reduce plus a broadcast on the collective channels), end the round.
  constexpr int kRounds = 40;
  const auto layout = make_layout(15, 9, 3, 1, {true, false});
  const auto owner = mesh::distribute_blocks_contiguous(3, 3);
  std::vector<double> maxima(3, 0.0);
  const auto trace = mpl::spmd_run(3, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank());
    BlockExchangePlan2D plan(u);
    double last = 0.0;
    for (int round = 1; round <= kRounds; ++round) {
      u.init_from_global([&](std::size_t i, std::size_t j) {
        return round * tagval(i, j);
      });
      plan.begin_exchange_all(p, u);
      last = p.allreduce(static_cast<double>(round * 10 + p.rank()),
                         mpl::MaxOp{});
      EXPECT_EQ(last, static_cast<double>(round * 10 + 2));
      plan.end_exchange_all(p, u);
      for (const auto& blk : u) expect_block_ghosts(blk, layout, false, round);
    }
    maxima[static_cast<std::size_t>(p.rank())] = last;
  });
  EXPECT_EQ(maxima, std::vector<double>(3, kRounds * 10 + 2));
  // Per round: each rank sends one halo message to each of its two
  // x-neighbors (periodic ring of 3), plus the allreduce's 2 reduce and
  // 2 broadcast messages.
  EXPECT_EQ(trace.messages, static_cast<std::uint64_t>(kRounds) * (6 + 4));
  EXPECT_EQ(trace.op(mpl::Op::kAllreduce),
            static_cast<std::uint64_t>(kRounds) * 3);
}

// ---------------------------------------------------------------------------
// Message counts.

TEST(BlockPlan, BatchedRoundIsOneMessagePerPeerRank) {
  const auto layout = make_layout(16, 16, 4, 4, {false, false});
  for (const int nprocs : {2, 4}) {
    const auto owner = mesh::distribute_blocks_contiguous(16, nprocs);
    std::size_t planned = 0;
    mpl::TraceSnapshot trace;
    mpl::spmd_collect<int>(
        nprocs,
        [&](mpl::Process& p) {
          BlockSet<double> u(layout, owner, p.rank());
          u.init_from_global(tagval);
          BlockExchangePlan2D plan(u);
          EXPECT_EQ(plan.off_rank_message_count(), plan.peer_count());
          if (p.rank() == 0) planned = plan.off_rank_message_count();
          plan.exchange_all(p, u);
          return static_cast<int>(plan.off_rank_message_count());
        },
        &trace);
    // The traced total of one round is the sum of every rank's plan.
    (void)planned;
    std::size_t total = 0;
    {
      // Re-derive each rank's peer count from the owner map alone.
      for (int r = 0; r < nprocs; ++r) {
        BlockExchangePlan2D plan(layout, owner, r);
        total += plan.off_rank_message_count();
      }
    }
    EXPECT_EQ(trace.messages, total);
  }
}

TEST(BlockPlan, BatchingCoalescesWithoutChangingPayload) {
  const auto layout = make_layout(16, 16, 4, 4, {true, true});
  const auto owner = mesh::distribute_blocks_round_robin(16, 4);
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      4,
      [&](mpl::Process& p) {
        BlockSet<double> u(layout, owner, p.rank());
        u.init_from_global(tagval);
        BlockExchangePlan2D plan(u);
        plan.exchange_all(p, u);
        return 0;
      },
      &trace);
  // Round-robin 4x4 blocks on 4 ranks: 32 off-rank strips of 4 cells, each
  // with its 8-byte status word (32 x 40 B), coalesced into one message per
  // peer rank. The per-pair mode this replaced sent the same bytes as 32
  // messages.
  EXPECT_EQ(trace.messages, 8u);
  EXPECT_EQ(trace.bytes, 1280u);
}

TEST(BlockPlan, OneBlockPerRankMatchesExchangePlan2D) {
  // Block grid 2x2 over 4 ranks with the identity owner map is exactly the
  // near-square process grid an ExchangePlan2D runs on: same halos, and the
  // batched round sends the same number of messages.
  constexpr std::size_t kN = 12, kM = 10;
  const auto layout = make_layout(kN, kM, 2, 2, {false, false});
  const auto owner = mesh::distribute_blocks_contiguous(4, 4);
  const mpl::CartGrid2D pgrid(2, 2);

  std::vector<std::vector<double>> block_ghosts(4), grid_ghosts(4);
  mpl::TraceSnapshot btrace, gtrace;
  mpl::spmd_collect<int>(
      4,
      [&](mpl::Process& p) {
        BlockSet<double> u(layout, owner, p.rank());
        u.init_from_global(tagval);
        BlockExchangePlan2D plan(u);
        plan.exchange_all(p, u);
        const auto& g = u.block(0).grid();
        auto& out = block_ghosts[static_cast<std::size_t>(p.rank())];
        for (std::ptrdiff_t i = -1; i <= static_cast<std::ptrdiff_t>(g.nx());
             ++i) {
          for (std::ptrdiff_t j = -1; j <= static_cast<std::ptrdiff_t>(g.ny());
               ++j) {
            out.push_back(g(i, j));
          }
        }
        return 0;
      },
      &btrace);
  mpl::spmd_collect<int>(
      4,
      [&](mpl::Process& p) {
        mesh::Grid2D<double> g(kN, kM, pgrid, p.rank(), 1);
        g.init_from_global(tagval);
        mesh::ExchangePlan2D plan(pgrid, p.rank(), g,
                                  mesh::ExchangeOptions2{{false, false},
                                                         /*corners=*/false});
        plan.begin_exchange(p, g);
        plan.end_exchange(p, g);
        auto& out = grid_ghosts[static_cast<std::size_t>(p.rank())];
        for (std::ptrdiff_t i = -1; i <= static_cast<std::ptrdiff_t>(g.nx());
             ++i) {
          for (std::ptrdiff_t j = -1; j <= static_cast<std::ptrdiff_t>(g.ny());
               ++j) {
            out.push_back(g(i, j));
          }
        }
        return 0;
      },
      &gtrace);
  EXPECT_EQ(block_ghosts, grid_ghosts);
  EXPECT_EQ(btrace.messages, gtrace.messages);
  // An ExchangePlan2D round is a block-plan round, so both send the same
  // records: the 8-byte status word included.
  EXPECT_EQ(btrace.bytes, gtrace.bytes);
}

// ---------------------------------------------------------------------------
// Distribution battery: every block→rank map computes the same field.

TEST(BlockDistributionBattery, AllMapsBitwiseEqualToSingleRankReference) {
  const auto layout = make_layout(22, 18, 4, 4, {true, true});
  constexpr int kSteps = 5;
  const auto reference = jacobi_fingerprint(
      layout, mesh::distribute_blocks_contiguous(16, 1), 1, kSteps);
  ASSERT_EQ(reference.rows(), 22u);
  // Traced messages and bytes of each run (halo rounds + the gather),
  // per np, for the contiguous, round-robin and lopsided maps.
  const std::map<int, std::array<std::pair<std::uint64_t, std::uint64_t>, 3>>
      counts = {{1, {{{0, 0}, {0, 0}, {0, 0}}}},
                {2, {{{12, 5344}, {12, 10288}, {12, 2160}}}},
                {4, {{{46, 9920}, {46, 11184}, {16, 2160}}}},
                {8, {{{134, 14560}, {134, 18760}, {24, 2160}}}}};

  for (const int np : {1, 2, 4, 8}) {
    std::vector<std::vector<int>> maps;
    maps.push_back(mesh::distribute_blocks_contiguous(16, np));  // oversubscribed
    maps.push_back(mesh::distribute_blocks_round_robin(16, np));
    // Deliberately imbalanced: everything on rank 0 except one block on
    // the last rank.
    std::vector<int> lopsided(16, 0);
    lopsided[7] = np - 1;
    maps.push_back(lopsided);
    for (std::size_t m = 0; m < maps.size(); ++m) {
      mpl::TraceSnapshot trace;
      const auto got = jacobi_fingerprint(layout, maps[m], np, kSteps, &trace);
      ASSERT_EQ(got.rows(), reference.rows());
      EXPECT_EQ(std::vector<double>(got.flat().begin(), got.flat().end()),
                std::vector<double>(reference.flat().begin(),
                                    reference.flat().end()))
          << "np=" << np << " map=" << m;
      EXPECT_EQ(trace.messages, counts.at(np)[m].first)
          << "np=" << np << " map=" << m;
      EXPECT_EQ(trace.bytes, counts.at(np)[m].second)
          << "np=" << np << " map=" << m;
    }
  }
}

TEST(BlockDistributionBattery, NonDivisibleBlockCounts) {
  // 3x3 = 9 blocks over 2 and 4 ranks; 23x17 cells over 3x3 blocks: nothing
  // divides anything.
  const auto layout = make_layout(23, 17, 3, 3, {true, false});
  const auto reference = jacobi_fingerprint(
      layout, mesh::distribute_blocks_contiguous(9, 1), 1, 4);
  for (const int np : {2, 4}) {
    const auto got = jacobi_fingerprint(
        layout, mesh::distribute_blocks_round_robin(9, np), np, 4);
    EXPECT_EQ(std::vector<double>(got.flat().begin(), got.flat().end()),
              std::vector<double>(reference.flat().begin(),
                                  reference.flat().end()))
        << "np=" << np;
  }
}

// ---------------------------------------------------------------------------
// Sparse allocation protocol.

TEST(BlockSparse, HalosFromUnallocatedNeighborsAreZeroFilled) {
  // 3x1 blocks on one rank, only the middle allocated and nonzero: after
  // one round its ghosts (fed by the empty neighbors) must read zero, and
  // the empty neighbors must stay empty (their incoming data is zero).
  const auto layout = make_layout(9, 4, 3, 1, {false, false});
  mpl::spmd_run(1, [&](mpl::Process& p) {
    BlockSet<double> u(layout, {0, 0, 0}, 0, /*allocate_all=*/false);
    u.block(1).allocate();
    auto& g = u.block(1).grid();
    // Nonzero only in the middle column, so the outgoing boundary strips
    // are all-zero and must not wake the neighbors.
    for (std::ptrdiff_t j = 0; j < 4; ++j) g(1, j) = 3.5;
    // Poison the middle block's ghosts to prove the round rewrites them.
    g(-1, 0) = 99.0;
    g(static_cast<std::ptrdiff_t>(g.nx()), 1) = 99.0;
    BlockExchangePlan2D plan(
        u, BlockExchangeOptions{false, 0, /*sparse=*/true, 0.0});
    plan.exchange_all(p, u);
    EXPECT_FALSE(u.block(0).allocated());  // zero data does not wake anyone
    EXPECT_FALSE(u.block(2).allocated());
    for (std::ptrdiff_t j = 0; j < 4; ++j) {
      EXPECT_EQ(g(-1, j), 0.0);
      EXPECT_EQ(g(3, j), 0.0);
    }
  });
}

TEST(BlockSparse, NonTrivialStripsWakeTheDownwindBlock) {
  // A front moving +x across 4x1 blocks split over 2 ranks: each round the
  // rightmost nonzero column crosses one block boundary, waking exactly the
  // next block — both the on-rank (0→1) and off-rank (1→2) hops.
  const auto layout = make_layout(12, 3, 4, 1, {false, false});
  const std::vector<int> owner{0, 0, 1, 1};
  mpl::spmd_run(2, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank(), /*allocate_all=*/false);
    if (const int li = u.local_index(0); li >= 0) {
      auto& b = u.block(static_cast<std::size_t>(li));
      b.allocate();
      // Nonzero only in the block's last interior column.
      for (std::ptrdiff_t j = 0; j < 3; ++j) b.grid()(2, j) = 1.0;
    }
    BlockExchangePlan2D plan(
        u, BlockExchangeOptions{false, 0, /*sparse=*/true, 0.0});

    const auto allocated = [&](int id) {
      const int li = u.local_index(id);
      return li >= 0 && u.block(static_cast<std::size_t>(li)).allocated();
    };
    const auto global_allocated = [&](int id) {
      return p.allreduce(static_cast<std::uint64_t>(allocated(id) ? 1 : 0),
                         mpl::MaxOp{}) == 1;
    };

    plan.exchange_all(p, u);  // wakes block 1 (on-rank copy)
    EXPECT_TRUE(global_allocated(1));
    EXPECT_FALSE(global_allocated(2));
    EXPECT_FALSE(global_allocated(3));
    // The woken block received the strip into its ghost layer.
    if (const int li = u.local_index(1); li >= 0) {
      auto& b = u.block(static_cast<std::size_t>(li));
      EXPECT_EQ(b.grid()(-1, 1), 1.0);
      // Advance the front into its interior edge so the next round crosses
      // the rank boundary.
      for (std::ptrdiff_t j = 0; j < 3; ++j) b.grid()(2, j) = 2.0;
    }
    plan.exchange_all(p, u);  // wakes block 2 (off-rank message)
    EXPECT_TRUE(global_allocated(2));
    EXPECT_FALSE(global_allocated(3));
    if (const int li = u.local_index(2); li >= 0) {
      EXPECT_EQ(u.block(static_cast<std::size_t>(li)).grid()(-1, 2), 2.0);
    }
  });
}

TEST(BlockSparse, AllocThresholdIgnoresSubThresholdStrips) {
  const auto layout = make_layout(6, 3, 2, 1, {false, false});
  mpl::spmd_run(1, [&](mpl::Process& p) {
    BlockSet<double> u(layout, {0, 0}, 0, /*allocate_all=*/false);
    u.block(0).allocate();
    u.block(0).grid()(2, 1) = 1e-9;  // boundary column, below threshold
    BlockExchangePlan2D plan(
        u, BlockExchangeOptions{false, 0, /*sparse=*/true,
                                /*alloc_threshold=*/1e-6});
    plan.exchange_all(p, u);
    EXPECT_FALSE(u.block(1).allocated());
    u.block(0).grid()(2, 1) = 1e-3;  // above threshold
    plan.exchange_all(p, u);
    EXPECT_TRUE(u.block(1).allocated());
  });
}

TEST(BlockSparse, DeallocSweepHonorsPatience) {
  const auto layout = make_layout(8, 4, 2, 1, {false, false});
  BlockSet<double> u(layout, {0, 0}, 0);
  u.block(0).grid().fill(1.0);  // block 1 stays all-zero
  const auto trivial = [](double v) { return v == 0.0; };
  EXPECT_EQ(u.sweep_deallocate(trivial, /*patience=*/2), 0u);  // 1st strike
  EXPECT_EQ(u.sweep_deallocate(trivial, 2), 1u);               // retired
  EXPECT_FALSE(u.block(1).allocated());
  EXPECT_TRUE(u.block(0).allocated());
  // Non-trivial data resets the strike counter.
  u.block(0).grid().fill(0.0);
  EXPECT_EQ(u.sweep_deallocate(trivial, 2), 0u);
  u.block(0).grid()(0, 0) = 5.0;
  EXPECT_EQ(u.sweep_deallocate(trivial, 2), 0u);  // reset by the 5.0
  u.block(0).grid()(0, 0) = 0.0;
  EXPECT_EQ(u.sweep_deallocate(trivial, 2), 0u);  // 1st strike again
  EXPECT_EQ(u.sweep_deallocate(trivial, 2), 1u);
  EXPECT_EQ(u.allocated_count(), 0u);
}

// ---------------------------------------------------------------------------
// Block-decomposed I/O.

TEST(BlockIO, GatherScatterRoundTripDense) {
  const auto layout = make_layout(13, 11, 3, 2, {false, false});
  const auto owner = mesh::distribute_blocks_round_robin(6, 3);
  mpl::spmd_run(3, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank());
    u.init_from_global(tagval);
    const auto dense = mesh::gather_blocks(p, u, 0);
    if (p.rank() == 0) {
      ASSERT_EQ(dense.rows(), 13u);
      ASSERT_EQ(dense.cols(), 11u);
      for (std::size_t i = 0; i < 13; ++i) {
        for (std::size_t j = 0; j < 11; ++j) {
          EXPECT_EQ(dense(i, j), tagval(i, j));
        }
      }
    }
    // Round trip through scatter into a zeroed set.
    BlockSet<double> v(layout, owner, p.rank());
    mesh::scatter_blocks(p, dense, v, 0);
    for (std::size_t b = 0; b < v.size(); ++b) {
      const auto& src = u.block(b).grid();
      const auto& dst = v.block(b).grid();
      mesh::for_interior(src, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
        EXPECT_EQ(dst(i, j), src(i, j));
      });
    }
  });
}

TEST(BlockIO, GatherScatterPreservesSparseAllocation) {
  const auto layout = make_layout(12, 12, 3, 3, {false, false});
  const auto owner = mesh::distribute_blocks_contiguous(9, 2);
  mpl::spmd_run(2, [&](mpl::Process& p) {
    BlockSet<double> u(layout, owner, p.rank(), /*allocate_all=*/false);
    // Allocate only block 4 (the center) with nonzero data.
    if (const int li = u.local_index(4); li >= 0) {
      auto& b = u.block(static_cast<std::size_t>(li));
      b.allocate();
      b.grid().fill(2.25);
    }
    const auto dense = mesh::gather_blocks(p, u, 0);
    if (p.rank() == 0) {
      double sum = 0.0;
      for (const double v : dense.flat()) sum += v;
      EXPECT_EQ(sum, 2.25 * 4 * 4);  // only the center block contributes
    }
    BlockSet<double> v(layout, owner, p.rank(), /*allocate_all=*/false);
    mesh::scatter_blocks(p, dense, v, 0);
    // All-zero windows stay deallocated; the center block materializes.
    const auto count = p.allreduce(
        static_cast<std::uint64_t>(v.allocated_count()), mpl::SumOp{});
    EXPECT_EQ(count, 1u);
    if (const int li = v.local_index(4); li >= 0) {
      const auto& b = v.block(static_cast<std::size_t>(li));
      ASSERT_TRUE(b.allocated());
      EXPECT_EQ(b.grid()(0, 0), 2.25);
    }
  });
}

// ---------------------------------------------------------------------------
// Shape guard.

TEST(BlockPlan, MismatchedBlockSetThrowsTyped) {
  const auto layout = make_layout(8, 8, 2, 2, {false, false});
  const auto other = make_layout(8, 8, 4, 1, {false, false});
  mpl::spmd_run(1, [&](mpl::Process& p) {
    BlockSet<double> u(layout, {0, 0, 0, 0}, 0);
    BlockSet<double> w(other, {0, 0, 0, 0}, 0);
    BlockExchangePlan2D plan(u);
    EXPECT_THROW(plan.begin_exchange_all(p, w), mesh::PlanShapeMismatch);
    // The guard must not have started a round.
    EXPECT_FALSE(plan.in_flight());
    plan.exchange_all(p, u);  // still usable with the right set
  });
}

TEST(BlockPlan, GhostWiderThanABlockThrowsTyped) {
  // 5 points over 3 blocks leaves one block a single point wide: a 2-deep
  // halo would pack that block's own ghost cells as interior data. The
  // check holds in every build, not only where assertions are compiled in.
  auto narrow_x = make_layout(5, 8, 3, 2, {false, false});
  auto narrow_y = make_layout(8, 5, 2, 3, {false, false});
  narrow_x.ghost = narrow_y.ghost = 2;
  const std::vector<int> owner(6, 0);
  EXPECT_THROW({ BlockExchangePlan2D plan(narrow_x, owner, 0); },
               std::invalid_argument);
  EXPECT_THROW({ BlockExchangePlan2D plan(narrow_y, owner, 0); },
               std::invalid_argument);
  // The same blocks take a 1-deep halo.
  narrow_x.ghost = narrow_y.ghost = 1;
  EXPECT_NO_THROW({ BlockExchangePlan2D plan(narrow_x, owner, 0); });
  EXPECT_NO_THROW({ BlockExchangePlan2D plan(narrow_y, owner, 0); });
}

TEST(BlockPlan, TagBlockOutsideTheExchangeSpaceThrowsTyped) {
  // A tag block past the last one would index the channel keys out of
  // bounds; the check holds in every build.
  const auto layout = make_layout(8, 8, 2, 2, {false, false});
  const std::vector<int> owner(4, 0);
  for (const int tb : {-1, mesh::kExchangeTagBlocks}) {
    EXPECT_THROW(
        { BlockExchangePlan2D plan(layout, owner, 0, {.tag_block = tb}); },
        std::invalid_argument)
        << "tag_block " << tb;
  }
  EXPECT_NO_THROW({
    BlockExchangePlan2D plan(layout, owner, 0,
                             {.tag_block = mesh::kExchangeTagBlocks - 1});
  });
  // The same check through the one-grid-per-rank plan's constructor.
  const mpl::CartGrid2D pgrid(2, 2);
  const mesh::Grid2D<double> g(8, 8, pgrid, 0, 1);
  EXPECT_THROW(
      {
        mesh::ExchangePlan2D plan(
            pgrid, 0, g,
            mesh::ExchangeOptions2{{}, true, mesh::kExchangeTagBlocks});
      },
      std::invalid_argument);
}

TEST(BlockPlan, OwnerMapOfTheWrongSizeThrowsTyped) {
  const auto layout = make_layout(8, 8, 2, 2, {false, false});
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{5}}) {
    EXPECT_THROW(
        { BlockExchangePlan2D plan(layout, std::vector<int>(n, 0), 0); },
        std::invalid_argument)
        << "owner map of " << n << " entries";
  }
}

}  // namespace
