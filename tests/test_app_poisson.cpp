// Tests for the Jacobi Poisson solver (paper section 6): version-1/version-2
// bitwise equivalence, convergence to known solutions, the discrete maximum
// principle, and the archetype's per-iteration communication pattern.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

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
  // Paper Fig 14 with a 2-deep halo: each round = one boundary exchange +
  // two Jacobi sweeps + one allreduce of both sweeps' diffmax. A solve that
  // stops on a round's first sweep ends with that round, so `iters` sweeps
  // take ceil(iters / 2) rounds.
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
  // One allreduce per round (counted once per rank) plus the final gather
  // for output.
  EXPECT_EQ(trace.op(mpl::Op::kAllreduce), (iters + 1) / 2 * kP);
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
  // 912 sweeps in 456 rounds of one halo exchange and one allreduce each,
  // then the header + payload gathers. np=2 (2x1 blocks): 456 rounds x
  // (1 halo + 1 allreduce message) x 2 ranks + 2 gather messages. np=4
  // (2x2 blocks): each rank has two face peers and one diagonal peer (the
  // 2-deep halo's corner patch), and its recursive-doubling allreduce
  // sends 2 messages: 456 x (3 + 2) x 4 + 6. `bytes` carry the 2-deep
  // strips and corner patches, each record's 8-byte status word, the
  // 16-byte two-sweep diffmax pair per allreduce message, and the block
  // gather's 6-word headers.
  const auto prob = block_test_problem();
  struct Pin {
    int np;
    std::uint64_t messages, bytes, allreduce, gather;
  };
  for (const Pin pin : {Pin{2, 1826, 331056, 912, 4},
                        Pin{4, 9126, 952672, 1824, 8}}) {
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A small problem with a nonzero right-hand side, so the ring sweep reads
/// the f values each rank evaluates at its neighbours' points.
PoissonProblem round_boundary_problem() {
  PoissonProblem prob;
  prob.nx = 19;
  prob.ny = 14;
  prob.g = [](double x, double y) { return 1.0 + x * x - 0.5 * y; };
  prob.f = [](double x, double y) { return std::sin(3.0 * x) + y; };
  return prob;
}

/// The block maps the round-boundary cases run at `np` ranks: one block
/// per rank, round-robin 3x3, and a lopsided 4x2 map (all on rank 0 but
/// block 5).
std::vector<mesh::BlockConfig> round_boundary_maps(int np) {
  mesh::BlockConfig round_robin;
  round_robin.nbx = 3;
  round_robin.nby = 3;
  round_robin.owner = mesh::distribute_blocks_round_robin(9, np);
  mesh::BlockConfig lopsided;
  lopsided.nbx = 4;
  lopsided.nby = 2;
  lopsided.owner.assign(8, 0);
  lopsided.owner[5] = np - 1;
  return {mesh::BlockConfig{}, round_robin, lopsided};
}

/// Every round-boundary case: the solve at np 1/2/3/4/8 on every map of
/// round_boundary_maps gives v1's field bits, iteration count and
/// final_diffmax bits.
void expect_all_maps_match_v1(const PoissonProblem& prob,
                              const std::string& label) {
  const auto v1 = app::poisson_v1(prob);
  for (const int np : {1, 2, 3, 4, 8}) {
    for (const auto& config : round_boundary_maps(np)) {
      const auto blk = app::poisson_spmd(prob, np, config);
      const std::string where = label + " np=" + std::to_string(np) +
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

TEST(PoissonBlocks, SwapInsteadOfCopyBackMatchesV1BitwiseEachIteration) {
  // The iteration swaps its old and new block sets instead of copying the
  // new values back, two sweeps per round. Stopping after 1 to 6 sweeps
  // (tolerance 0 never converges) pins that each count's field and diffmax
  // still equal poisson_v1's; odd counts end on a lone first sweep.
  auto prob = round_boundary_problem();
  prob.tolerance = 0.0;
  for (std::size_t iters = 1; iters <= 6; ++iters) {
    prob.max_iters = iters;
    ASSERT_EQ(app::poisson_v1(prob).iterations, iters);
    expect_all_maps_match_v1(prob, "max_iters=" + std::to_string(iters));
  }
}

TEST(PoissonBlocks, ConvergesOnEitherSweepOfARoundMatchesV1Bitwise) {
  // One allreduce decides two sweeps. A solve whose tolerance is first met
  // on a round's first sweep (odd count) must return that sweep's iterate
  // and diffmax, not the second's; one met on the second sweep (even
  // count), the second's. The tolerance is v1's diffmax after `target`
  // sweeps, so v1 stops exactly there.
  for (const std::size_t target : {1u, 2u, 7u, 8u}) {
    auto probe = round_boundary_problem();
    probe.tolerance = 0.0;
    probe.max_iters = target;
    auto prob = round_boundary_problem();
    prob.tolerance = app::poisson_v1(probe).final_diffmax;
    ASSERT_EQ(app::poisson_v1(prob).iterations, target);
    expect_all_maps_match_v1(prob, "converge_at=" + std::to_string(target));
  }
}

TEST(PoissonBlocks, BlockNarrowerThanTwoPointsThrowsTyped) {
  // A round sweeps twice on one 2-deep exchange, which needs every block
  // at least 2 points wide: 5 points over 3 blocks leaves one 1 wide.
  struct Case {
    std::size_t nx, ny;
    int nbx, nby;
  };
  for (const Case c : {Case{5, 8, 3, 2}, Case{8, 5, 2, 3}}) {
    PoissonProblem prob;
    prob.nx = c.nx;
    prob.ny = c.ny;
    mesh::BlockConfig narrow;
    narrow.nbx = c.nbx;
    narrow.nby = c.nby;
    try {
      (void)app::poisson_spmd(prob, 2, narrow);
      ADD_FAILURE() << "no throw for " << c.nbx << "x" << c.nby << " blocks";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("poisson_process"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
