// Tests for the Jacobi Poisson solver (paper section 6): version-1/version-2
// bitwise equivalence, convergence to known solutions, the discrete maximum
// principle, and the archetype's per-iteration communication pattern.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>

#include "apps/poisson/poisson.hpp"

namespace {

using namespace ppa;
using app::PoissonProblem;

class PoissonP : public testing::TestWithParam<int> {};

TEST_P(PoissonP, Version2MatchesVersion1Bitwise) {
  // Same arithmetic per point, max-based convergence test => identical
  // fields and iteration counts regardless of the process grid.
  const int p = GetParam();
  PoissonProblem prob;
  prob.nx = 33;
  prob.ny = 21;
  prob.tolerance = 1e-6;
  prob.g = [](double x, double y) { return x * x - y * y; };
  prob.f = [](double, double) { return 0.0; };

  const auto v1 = app::poisson_v1(prob);
  const auto v2 = app::poisson_spmd(prob, p);
  EXPECT_EQ(v1.iterations, v2.iterations);
  ASSERT_EQ(v1.u.rows(), v2.u.rows());
  for (std::size_t i = 0; i < v1.u.rows(); ++i) {
    for (std::size_t j = 0; j < v1.u.cols(); ++j) {
      EXPECT_EQ(v1.u(i, j), v2.u(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST_P(PoissonP, ConvergesToLinearHarmonicExactly) {
  // u = x + y is harmonic and exactly representable by the 5-point stencil:
  // Jacobi must converge to it (up to the tolerance) from a zero interior.
  const int p = GetParam();
  PoissonProblem prob;
  prob.nx = 17;
  prob.ny = 17;
  prob.tolerance = 1e-10;
  prob.g = [](double x, double y) { return x + y; };
  const auto r = app::poisson_spmd(prob, p);
  const double h = 1.0 / static_cast<double>(prob.nx - 1);
  for (std::size_t i = 0; i < prob.nx; ++i) {
    for (std::size_t j = 0; j < prob.ny; ++j) {
      const double expect = static_cast<double>(i) * h + static_cast<double>(j) * h;
      EXPECT_NEAR(r.u(i, j), expect, 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, PoissonP, testing::Values(1, 2, 3, 4, 6),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(PoissonApp, ManufacturedSolutionConverges) {
  // u* = sin(pi x) sin(pi y): f = -2 pi^2 u*, g = 0. The discrete solution
  // approaches u* to O(h^2).
  PoissonProblem prob;
  prob.nx = 33;
  prob.ny = 33;
  prob.tolerance = 1e-9;
  prob.f = [](double x, double y) {
    return -2.0 * std::numbers::pi * std::numbers::pi * std::sin(std::numbers::pi * x) *
           std::sin(std::numbers::pi * y);
  };
  const auto r = app::poisson_spmd(prob, 4);
  double max_err = 0.0;
  const double h = 1.0 / 32.0;
  for (std::size_t i = 0; i < prob.nx; ++i) {
    for (std::size_t j = 0; j < prob.ny; ++j) {
      const double exact = std::sin(std::numbers::pi * static_cast<double>(i) * h) *
                           std::sin(std::numbers::pi * static_cast<double>(j) * h);
      max_err = std::max(max_err, std::abs(r.u(i, j) - exact));
    }
  }
  EXPECT_LT(max_err, 5e-3);  // discretization + iteration error at h = 1/32
}

TEST(PoissonApp, DiscreteMaximumPrinciple) {
  // With f = 0 the converged solution's extrema lie on the boundary.
  PoissonProblem prob;
  prob.nx = 25;
  prob.ny = 25;
  prob.tolerance = 1e-8;
  prob.g = [](double x, double y) {
    return std::cos(3.0 * x) + 0.5 * std::sin(5.0 * y);
  };
  const auto r = app::poisson_spmd(prob, 4);
  double bmin = 1e300, bmax = -1e300;
  for (std::size_t i = 0; i < prob.nx; ++i) {
    for (std::size_t j = 0; j < prob.ny; ++j) {
      if (i == 0 || i == prob.nx - 1 || j == 0 || j == prob.ny - 1) {
        bmin = std::min(bmin, r.u(i, j));
        bmax = std::max(bmax, r.u(i, j));
      }
    }
  }
  const double slack = 1e-6;  // residual iteration error
  for (std::size_t i = 1; i + 1 < prob.nx; ++i) {
    for (std::size_t j = 1; j + 1 < prob.ny; ++j) {
      EXPECT_GE(r.u(i, j), bmin - slack);
      EXPECT_LE(r.u(i, j), bmax + slack);
    }
  }
}

TEST(PoissonApp, IterationCountGrowsWithResolution) {
  // Jacobi's convergence slows as O(h^-2): a finer grid needs more sweeps.
  PoissonProblem coarse, fine;
  coarse.nx = coarse.ny = 9;
  fine.nx = fine.ny = 17;
  coarse.tolerance = fine.tolerance = 1e-6;
  coarse.g = fine.g = [](double x, double y) { return x * y; };
  const auto rc = app::poisson_v1(coarse);
  const auto rf = app::poisson_v1(fine);
  EXPECT_GT(rf.iterations, rc.iterations);
}

TEST(PoissonApp, MaxItersGuards) {
  PoissonProblem prob;
  prob.nx = prob.ny = 65;
  prob.tolerance = 0.0;  // unreachable
  prob.max_iters = 10;
  prob.g = [](double x, double) { return x; };
  const auto r = app::poisson_v1(prob);
  EXPECT_EQ(r.iterations, 10u);
}

TEST(PoissonApp, PerIterationCommunicationPattern) {
  // Paper Fig 14: each iteration = one boundary exchange + one allreduce.
  constexpr int kP = 4;
  PoissonProblem prob;
  prob.nx = prob.ny = 17;
  prob.tolerance = 1e-3;
  prob.g = [](double x, double y) { return x - y; };

  const auto pgrid = mpl::CartGrid2D::near_square(kP);
  mpl::TraceSnapshot trace;
  std::size_t iters = 0;
  mpl::spmd_collect<int>(
      kP,
      [&](mpl::Process& p) {
        const auto r = app::poisson_process(p, pgrid, prob);
        if (p.rank() == 0) iters = r.iterations;
        return 0;
      },
      &trace);
  // One allreduce per iteration (counted once per rank) plus the final
  // gather for output.
  EXPECT_EQ(trace.op(mpl::Op::kAllreduce), iters * kP);
  EXPECT_EQ(trace.op(mpl::Op::kGather), 2u * kP);  // header + payload gathers
}

// ----------------------------------------------------------- block driver --

PoissonProblem block_test_problem() {
  PoissonProblem prob;
  prob.nx = 33;
  prob.ny = 21;
  prob.tolerance = 1e-6;
  prob.g = [](double x, double y) { return x * x - y * y; };
  prob.f = [](double, double) { return 0.0; };
  return prob;
}

TEST(PoissonBlocks, OneBlockPerRankMatchesSequentialBitwise) {
  // At one block per rank (the default layout) every process count gives
  // poisson_v1's field, bit for bit, and its iteration count.
  const auto prob = block_test_problem();
  const auto v1 = app::poisson_v1(prob);
  for (const int p : {1, 2, 4, 8}) {
    const auto blk = app::poisson_spmd(prob, p);
    EXPECT_EQ(v1.iterations, blk.iterations) << "p=" << p;
    ASSERT_EQ(v1.u.rows(), blk.u.rows());
    for (std::size_t i = 0; i < v1.u.rows(); ++i) {
      for (std::size_t j = 0; j < v1.u.cols(); ++j) {
        ASSERT_EQ(v1.u(i, j), blk.u(i, j))
            << "p=" << p << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(PoissonBlocks, OneBlockPerRankMessageCountsPinned) {
  // 912 iterations of one halo round and one allreduce each, then the
  // header + payload gathers. `messages` and the collective counts are
  // those of the one-grid-per-rank ExchangePlan2D driver this path
  // replaced (no peer is reached twice on a non-periodic grid); `bytes`
  // carry the batched round's 8-byte status word per strip and the block
  // gather's 6-word headers.
  const auto prob = block_test_problem();
  struct Pin {
    int np;
    std::uint64_t messages, bytes, allreduce, gather;
  };
  for (const Pin pin : {Pin{2, 3650, 338352, 1824, 4},
                        Pin{4, 14598, 908896, 3648, 8}}) {
    const auto pgrid = mpl::CartGrid2D::near_square(pin.np);
    mpl::TraceSnapshot trace;
    std::size_t iters = 0;
    mpl::spmd_collect<int>(
        pin.np,
        [&](mpl::Process& p) {
          const auto r = app::poisson_process(p, pgrid, prob);
          if (p.rank() == 0) iters = r.iterations;
          return 0;
        },
        &trace);
    EXPECT_EQ(iters, 912u) << "np=" << pin.np;
    EXPECT_EQ(trace.messages, pin.messages) << "np=" << pin.np;
    EXPECT_EQ(trace.bytes, pin.bytes) << "np=" << pin.np;
    EXPECT_EQ(trace.op(mpl::Op::kAllreduce), pin.allreduce) << "np=" << pin.np;
    EXPECT_EQ(trace.op(mpl::Op::kGather), pin.gather) << "np=" << pin.np;
  }
}

TEST(PoissonBlocks, AnyDistributionMatchesReferenceBitwise) {
  // Oversubscribed, non-divisible, and deliberately imbalanced block→rank
  // maps all reproduce the reference field bitwise.
  const auto prob = block_test_problem();
  const auto reference = app::poisson_spmd(prob, 1);

  for (const int np : {1, 2, 4, 8}) {
    std::vector<mesh::BlockConfig> configs;
    mesh::BlockConfig over;  // 8 blocks, oversubscribed for np < 8
    over.nbx = 4;
    over.nby = 2;
    configs.push_back(over);
    mesh::BlockConfig nondiv;  // 9 blocks never divide evenly
    nondiv.nbx = 3;
    nondiv.nby = 3;
    nondiv.owner = mesh::distribute_blocks_round_robin(9, np);
    configs.push_back(nondiv);
    mesh::BlockConfig lopsided;  // all on rank 0 but one
    lopsided.nbx = 4;
    lopsided.nby = 2;
    lopsided.owner.assign(8, 0);
    lopsided.owner[5] = np - 1;
    configs.push_back(lopsided);

    for (const auto& config : configs) {
      const auto blk = app::poisson_spmd(prob, np, config);
      EXPECT_EQ(reference.iterations, blk.iterations) << "np=" << np;
      for (std::size_t i = 0; i < reference.u.rows(); ++i) {
        for (std::size_t j = 0; j < reference.u.cols(); ++j) {
          ASSERT_EQ(reference.u(i, j), blk.u(i, j))
              << "np=" << np << " nbx=" << config.nbx << " at (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

TEST(PoissonBlocks, SwapInsteadOfCopyBackMatchesV1BitwiseEachIteration) {
  // The iteration swaps its old and new block sets instead of copying the
  // new values back. Stopping after 1, 2 and 3 rounds (tolerance 0 never
  // converges) pins that each round's field, count and diffmax still equal
  // poisson_v1's, for one block per rank and a round-robin multi-block
  // map.
  PoissonProblem prob;
  prob.nx = 19;
  prob.ny = 14;
  prob.tolerance = 0.0;
  prob.g = [](double x, double y) { return 1.0 + x * x - 0.5 * y; };
  prob.f = [](double x, double y) { return std::sin(3.0 * x) + y; };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  for (const std::size_t iters : {1u, 2u, 3u}) {
    prob.max_iters = iters;
    const auto v1 = app::poisson_v1(prob);
    ASSERT_EQ(v1.iterations, iters);
    for (const int np : {1, 2, 4, 8}) {
      mesh::BlockConfig round_robin;
      round_robin.nbx = 3;
      round_robin.nby = 3;
      round_robin.owner = mesh::distribute_blocks_round_robin(9, np);
      for (const auto& config : {mesh::BlockConfig{}, round_robin}) {
        const auto blk = app::poisson_spmd(prob, np, config);
        const std::string where = "iters=" + std::to_string(iters) +
                                  " np=" + std::to_string(np) +
                                  " nbx=" + std::to_string(config.nbx);
        EXPECT_EQ(blk.iterations, v1.iterations) << where;
        EXPECT_EQ(bits(blk.final_diffmax), bits(v1.final_diffmax)) << where;
        ASSERT_EQ(blk.u.rows(), v1.u.rows()) << where;
        ASSERT_EQ(blk.u.cols(), v1.u.cols()) << where;
        for (std::size_t i = 0; i < v1.u.rows(); ++i) {
          for (std::size_t j = 0; j < v1.u.cols(); ++j) {
            ASSERT_EQ(bits(blk.u(i, j)), bits(v1.u(i, j)))
                << where << " at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

}  // namespace
