// Tests for the mesh-spectral archetype: distributed grids (2-D/3-D), ghost
// boundary exchange (incl. corners and periodic variants), grid/reduction
// operations, row/column redistribution, replicated globals, and gather/
// scatter I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa;
using mesh::Grid2D;
using mesh::Grid3D;

// Encode a global coordinate pair as a unique double for exchange checks.
double tagval(std::size_t gi, std::size_t gj) {
  return static_cast<double>(gi) * 1000.0 + static_cast<double>(gj);
}

// ----------------------------------------------------------------- Grid2D --

TEST(Grid2D, PartitionCoversGlobalGrid) {
  const mpl::CartGrid2D pg(2, 3);
  std::vector<std::vector<int>> owner(7, std::vector<int>(11, -1));
  for (int r = 0; r < pg.size(); ++r) {
    const Grid2D<double> g(7, 11, pg, r, 1);
    for (std::size_t i = g.x_range().lo; i < g.x_range().hi; ++i) {
      for (std::size_t j = g.y_range().lo; j < g.y_range().hi; ++j) {
        EXPECT_EQ(owner[i][j], -1) << "overlapping ownership";
        owner[i][j] = r;
      }
    }
  }
  for (const auto& row : owner) {
    for (int o : row) EXPECT_NE(o, -1) << "uncovered point";
  }
}

TEST(Grid2D, GhostIndexingDoesNotAliasInterior) {
  Grid2D<int> g(4, 4, mpl::CartGrid2D{1, 1}, 0, 2);
  g.fill(0);
  g(-2, -2) = 7;
  g(5, 5) = 9;
  for (std::ptrdiff_t i = 0; i < 4; ++i) {
    for (std::ptrdiff_t j = 0; j < 4; ++j) EXPECT_EQ(g(i, j), 0);
  }
}

TEST(Grid2D, InitFromGlobalUsesGlobalCoordinates) {
  const mpl::CartGrid2D pg(2, 2);
  for (int r = 0; r < 4; ++r) {
    Grid2D<double> g(6, 6, pg, r, 1);
    g.init_from_global(&tagval);
    for (std::size_t i = 0; i < g.nx(); ++i) {
      for (std::size_t j = 0; j < g.ny(); ++j) {
        EXPECT_EQ(g(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j)),
                  tagval(g.x_range().lo + i, g.y_range().lo + j));
      }
    }
  }
}

TEST(Grid2D, PackUnpackRegionRoundtrip) {
  Grid2D<int> g(5, 5, mpl::CartGrid2D{1, 1}, 0, 1);
  g.init_from_global([](std::size_t i, std::size_t j) {
    return static_cast<int>(i * 10 + j);
  });
  const auto buf = g.pack_region(1, 4, 2, 5);
  ASSERT_EQ(buf.size(), 9u);
  Grid2D<int> h(5, 5, mpl::CartGrid2D{1, 1}, 0, 1);
  h.fill(-1);
  h.unpack_region(1, 4, 2, 5, buf);
  EXPECT_EQ(h(1, 2), 12);
  EXPECT_EQ(h(3, 4), 34);
  EXPECT_EQ(h(0, 0), -1);
}

// ------------------------------------------------------ boundary exchange --

class ExchangeP : public testing::TestWithParam<int> {};

TEST_P(ExchangeP, GhostsMatchNeighborInteriors) {
  const int nprocs = GetParam();
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 12, kM = 10;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(kN, kM, pg, p.rank(), 1);
    g.init_from_global(&tagval);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);
    plan.exchange(p, g);
    // Every ghost cell whose global coordinate is inside the domain must
    // hold the value the owning process wrote (corners included: the plan
    // exchanges with diagonal neighbors too).
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    for (std::ptrdiff_t i = -1; i <= nx; ++i) {
      for (std::ptrdiff_t j = -1; j <= ny; ++j) {
        const bool ghost = (i < 0 || i >= nx || j < 0 || j >= ny);
        if (!ghost) continue;
        const auto gi = static_cast<std::ptrdiff_t>(g.x_range().lo) + i;
        const auto gj = static_cast<std::ptrdiff_t>(g.y_range().lo) + j;
        if (gi < 0 || gi >= static_cast<std::ptrdiff_t>(kN) || gj < 0 ||
            gj >= static_cast<std::ptrdiff_t>(kM)) {
          continue;  // outside the global domain: application's concern
        }
        EXPECT_EQ(g(i, j), tagval(static_cast<std::size_t>(gi),
                                  static_cast<std::size_t>(gj)))
            << "rank " << p.rank() << " ghost (" << i << "," << j << ")";
      }
    }
  });
}

TEST_P(ExchangeP, PeriodicWrapsAround) {
  const int nprocs = GetParam();
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 8, kM = 6;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(kN, kM, pg, p.rank(), 1);
    g.init_from_global(&tagval);
    mesh::ExchangePlan2D plan(
        pg, p.rank(), g,
        mesh::ExchangePlan2D::Options{mesh::Periodicity{true, true}, true, 0});
    plan.exchange(p, g);
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    for (std::ptrdiff_t i = -1; i <= nx; ++i) {
      for (std::ptrdiff_t j = -1; j <= ny; ++j) {
        const bool ghost = (i < 0 || i >= nx || j < 0 || j >= ny);
        if (!ghost) continue;
        const auto wrap = [](std::ptrdiff_t v, std::size_t n) {
          const auto m = static_cast<std::ptrdiff_t>(n);
          return static_cast<std::size_t>(((v % m) + m) % m);
        };
        const std::size_t gi =
            wrap(static_cast<std::ptrdiff_t>(g.x_range().lo) + i, kN);
        const std::size_t gj =
            wrap(static_cast<std::ptrdiff_t>(g.y_range().lo) + j, kM);
        EXPECT_EQ(g(i, j), tagval(gi, gj))
            << "rank " << p.rank() << " ghost (" << i << "," << j << ")";
      }
    }
  });
}

TEST_P(ExchangeP, ExchangeMessageCountMatchesTopology) {
  const int nprocs = GetParam();
  if (nprocs < 2) GTEST_SKIP();
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      nprocs,
      [&](mpl::Process& p) {
        Grid2D<double> g(16, 16, pg, p.rank(), 1);
        mesh::ExchangePlan2D plan(pg, p.rank(), g);
        plan.exchange(p, g);
        return 0;
      },
      &trace);
  // One-round plan exchange: every adjacent pair of ranks — orthogonal
  // (x edges: (npx-1)*npy; y edges: npx*(npy-1)) and diagonal
  // (2*(npx-1)*(npy-1)) — carries exactly 2 messages (one each way).
  const auto pairs = static_cast<std::uint64_t>(
      (pg.npx() - 1) * pg.npy() + pg.npx() * (pg.npy() - 1) +
      2 * (pg.npx() - 1) * (pg.npy() - 1));
  EXPECT_EQ(trace.messages, 2 * pairs);
}

TEST_P(ExchangeP, MixedPeriodicityWrapsOnlyOneAxis) {
  // Periodic in x, open in y (the CFD scenario's configuration, mirrored).
  const int nprocs = GetParam();
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 8, kM = 6;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(kN, kM, pg, p.rank(), 1);
    g.fill(-7.0);  // sentinel in all ghosts
    g.init_from_global(&tagval);
    mesh::ExchangePlan2D plan(
        pg, p.rank(), g,
        mesh::ExchangePlan2D::Options{mesh::Periodicity{true, false}, true, 0});
    plan.exchange(p, g);
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    for (std::ptrdiff_t i = -1; i <= nx; ++i) {
      for (std::ptrdiff_t j = -1; j <= ny; ++j) {
        const bool ghost = (i < 0 || i >= nx || j < 0 || j >= ny);
        if (!ghost) continue;
        const auto gi_raw = static_cast<std::ptrdiff_t>(g.x_range().lo) + i;
        const auto gj = static_cast<std::ptrdiff_t>(g.y_range().lo) + j;
        if (gj < 0 || gj >= static_cast<std::ptrdiff_t>(kM)) {
          // Open-y boundary ghosts (including x-wrapped corners beyond the
          // y extent) must be untouched.
          EXPECT_EQ(g(i, j), -7.0) << "rank " << p.rank() << " (" << i << ","
                                   << j << ")";
          continue;
        }
        const auto m = static_cast<std::ptrdiff_t>(kN);
        const auto gi = static_cast<std::size_t>(((gi_raw % m) + m) % m);
        EXPECT_EQ(g(i, j), tagval(gi, static_cast<std::size_t>(gj)))
            << "rank " << p.rank() << " (" << i << "," << j << ")";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ExchangeP, testing::Values(1, 2, 3, 4, 6, 9),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

// -------------------------------------------------------------- grid ops --

TEST(GridOps, PointwiseAndStencil) {
  const mpl::CartGrid2D pg(1, 1);
  Grid2D<double> in(4, 4, pg, 0, 1), out(4, 4, pg, 0, 1);
  in.init_from_global([](std::size_t i, std::size_t j) {
    return static_cast<double>(i + j);
  });
  mesh::apply_pointwise(out, in, [](double v) { return 2.0 * v; });
  EXPECT_DOUBLE_EQ(out(2, 3), 10.0);

  Grid2D<double> lap(4, 4, pg, 0, 1);
  mesh::apply_stencil(lap, in, [](const Grid2D<double>& u, std::ptrdiff_t i,
                                  std::ptrdiff_t j) {
    return u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1) - 4.0 * u(i, j);
  });
  // Interior point away from ghost zeros: i+j is harmonic, laplacian 0.
  EXPECT_DOUBLE_EQ(lap(1, 1), 0.0);
}

class ReduceP : public testing::TestWithParam<int> {};

TEST_P(ReduceP, DistributedSumAndMaxMatchDense) {
  const int nprocs = GetParam();
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 9, kM = 13;
  const auto results = mpl::spmd_collect<std::pair<double, double>>(
      nprocs, [&](mpl::Process& p) {
        Grid2D<double> g(kN, kM, pg, p.rank(), 0);
        g.init_from_global([](std::size_t i, std::size_t j) {
          return std::sin(static_cast<double>(i * 31 + j * 7));
        });
        return std::make_pair(mesh::reduce_sum(p, g),
                              mesh::reduce_max(p, g, -1e300));
      });
  double expect_sum = 0.0, expect_max = -1e300;
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      const double v = std::sin(static_cast<double>(i * 31 + j * 7));
      expect_sum += v;
      expect_max = std::max(expect_max, v);
    }
  }
  for (const auto& [sum, max] : results) {
    EXPECT_NEAR(sum, expect_sum, 1e-9);  // associativity reordering tolerance
    EXPECT_DOUBLE_EQ(max, expect_max);   // max is exact under reassociation
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ReduceP, testing::Values(1, 2, 3, 4, 5, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

// ----------------------------------------------------------- row/col dist --

class RowColP : public testing::TestWithParam<int> {};

TEST_P(RowColP, RedistributeRowsToColsAndBack) {
  const int nprocs = GetParam();
  constexpr std::size_t kN = 11, kM = 7;  // deliberately not divisible by P
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    mesh::RowDistributed<double> rows(kN, kM, p.size(), p.rank());
    rows.init_from_global(&tagval);

    mesh::ColDistributed<double> cols(kN, kM, p.size(), p.rank());
    mesh::redistribute(p, rows, cols);
    // Every element of our column block must be the global value.
    for (std::size_t c = 0; c < cols.cols_local(); ++c) {
      for (std::size_t r = 0; r < kN; ++r) {
        EXPECT_EQ(cols.at(r, c), tagval(r, cols.cols().lo + c));
      }
    }

    mesh::RowDistributed<double> rows2(kN, kM, p.size(), p.rank());
    mesh::redistribute(p, cols, rows2);
    for (std::size_t r = 0; r < rows2.rows_local(); ++r) {
      for (std::size_t c = 0; c < kM; ++c) {
        EXPECT_EQ(rows2.at(r, c), tagval(rows2.rows().lo + r, c));
      }
    }
  });
}

TEST_P(RowColP, GatherMatrixAssemblesGlobal) {
  const int nprocs = GetParam();
  constexpr std::size_t kN = 10, kM = 4;
  const auto results = mpl::spmd_collect<bool>(nprocs, [&](mpl::Process& p) {
    mesh::RowDistributed<double> rows(kN, kM, p.size(), p.rank());
    rows.init_from_global(&tagval);
    const auto dense = mesh::gather_matrix(p, rows, 0);
    if (p.rank() != 0) return dense.empty();
    bool ok = dense.rows() == kN && dense.cols() == kM;
    for (std::size_t i = 0; i < kN && ok; ++i) {
      for (std::size_t j = 0; j < kM && ok; ++j) ok = dense(i, j) == tagval(i, j);
    }
    return ok;
  });
  for (bool ok : results) EXPECT_TRUE(ok);
}

TEST_P(RowColP, RedistributionUsesOneAlltoall) {
  const int nprocs = GetParam();
  if (nprocs < 2) GTEST_SKIP();
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      nprocs,
      [&](mpl::Process& p) {
        mesh::RowDistributed<double> rows(16, 16, p.size(), p.rank());
        mesh::ColDistributed<double> cols(16, 16, p.size(), p.rank());
        mesh::redistribute(p, rows, cols);
        return 0;
      },
      &trace);
  EXPECT_EQ(trace.op(mpl::Op::kAlltoall), static_cast<std::uint64_t>(nprocs));
  EXPECT_EQ(trace.messages,
            static_cast<std::uint64_t>(nprocs) * static_cast<std::uint64_t>(nprocs - 1));
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, RowColP, testing::Values(1, 2, 3, 4, 5, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

// ------------------------------------------------------------------ global --

TEST(GlobalVar, BroadcastEstablishesConsistency) {
  mpl::spmd_run(4, [](mpl::Process& p) {
    mesh::Global<double> tol(0.0);
    // Rank 2 "reads the value from a file"; broadcast re-establishes copies.
    tol.store_from(p, p.rank() == 2 ? 0.125 : -1.0, 2);
    EXPECT_DOUBLE_EQ(tol.get(), 0.125);
  });
}

TEST(GlobalVar, ReplicatedStoreWithVerification) {
  mpl::spmd_run(3, [](mpl::Process& p) {
    mesh::Global<int> steps(0);
    const int value = 40 + 2;  // identical on all ranks
    steps.store_replicated(p, value, /*verify=*/true);
    EXPECT_EQ(static_cast<int>(steps), 42);
  });
}

TEST(GlobalVar, VerifiedStoreThrowsOnEveryRankWhenCopiesDiverge) {
  // The check holds in every build type, and every rank throws: each sees
  // the same allgather, so none is left waiting for the others.
  mpl::spmd_run(4, [](mpl::Process& p) {
    mesh::Global<double> x(0.0);
    EXPECT_THROW(x.store_replicated(p, p.rank() == 2 ? 1.0 : 0.5,
                                    /*verify=*/true),
                 mesh::GlobalDiverged);
    // A signed zero is a different copy too.
    EXPECT_THROW(x.store_replicated(p, p.rank() == 0 ? -0.0 : 0.0,
                                    /*verify=*/true),
                 mesh::GlobalDiverged);
    EXPECT_EQ(x.get(), 0.0);  // neither failed store took effect
  });
}

TEST(GlobalVar, VerifiedStoreAcceptsIdenticalNaNCopies) {
  // Copies are compared by bit pattern, so the same NaN on every rank is
  // consistent (NaN == NaN would call it diverged).
  mpl::spmd_run(3, [](mpl::Process& p) {
    mesh::Global<double> x(1.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NO_THROW(x.store_replicated(p, nan, /*verify=*/true));
    EXPECT_TRUE(std::isnan(x.get()));
    mesh::Global<float> y(1.0f);
    EXPECT_NO_THROW(y.store_replicated(
        p, std::numeric_limits<float>::quiet_NaN(), /*verify=*/true));
    EXPECT_TRUE(std::isnan(y.get()));
  });
}

// --------------------------------------------------------------------- io --

TEST(GridIO, GatherScatterRoundtrip) {
  const int nprocs = 4;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 9, kM = 5;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(kN, kM, pg, p.rank(), 1);
    g.init_from_global(&tagval);
    const auto dense = mesh::gather_grid(p, pg, g, 0);
    if (p.rank() == 0) {
      ASSERT_EQ(dense.rows(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kM; ++j) EXPECT_EQ(dense(i, j), tagval(i, j));
      }
    }
    // Scatter back into a fresh grid; interiors must match the original.
    Grid2D<double> h(kN, kM, pg, p.rank(), 1);
    mesh::scatter_grid(p, pg, dense, h, 0);
    EXPECT_EQ(h.interior(), g.interior());
  });
}

TEST(GridIO, WriteGridTextProducesFile) {
  const std::string path = testing::TempDir() + "/ppa_grid.txt";
  mpl::spmd_run(2, [&](mpl::Process& p) {
    const mpl::CartGrid2D pg(2, 1);
    Grid2D<double> g(4, 3, pg, p.rank(), 1);
    g.init_from_global([](std::size_t i, std::size_t j) {
      return static_cast<double>(i * 3 + j);
    });
    mesh::write_grid_text(p, pg, g, path, 0);
  });
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  double v = -1.0;
  in >> v;
  EXPECT_DOUBLE_EQ(v, 0.0);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Grid3D --

TEST(Grid3D, PartitionCoversGlobalGrid) {
  const mpl::CartGrid3D pg(2, 2, 2);
  Array3D<int> owner(5, 6, 7, -1);
  for (int r = 0; r < pg.size(); ++r) {
    const Grid3D<double> g(5, 6, 7, pg, r, 1);
    for (std::size_t i = g.range(0).lo; i < g.range(0).hi; ++i)
      for (std::size_t j = g.range(1).lo; j < g.range(1).hi; ++j)
        for (std::size_t k = g.range(2).lo; k < g.range(2).hi; ++k) {
          EXPECT_EQ(owner(i, j, k), -1);
          owner(i, j, k) = r;
        }
  }
  for (int o : owner.flat()) EXPECT_NE(o, -1);
}

double tagval3(std::size_t i, std::size_t j, std::size_t k) {
  return static_cast<double>(i) * 1e6 + static_cast<double>(j) * 1e3 +
         static_cast<double>(k);
}

class Exchange3DP : public testing::TestWithParam<int> {};

TEST_P(Exchange3DP, GhostsMatchNeighborInteriorsInclCorners) {
  const int nprocs = GetParam();
  const auto pg = mpl::CartGrid3D::near_cubic(nprocs);
  constexpr std::size_t kN = 6, kM = 5, kL = 7;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid3D<double> g(kN, kM, kL, pg, p.rank(), 1);
    g.init_from_global(&tagval3);
    mesh::ExchangePlan3D plan(pg, p.rank(), g);
    plan.exchange(p, g);
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    const auto nz = static_cast<std::ptrdiff_t>(g.nz());
    for (std::ptrdiff_t i = -1; i <= nx; ++i)
      for (std::ptrdiff_t j = -1; j <= ny; ++j)
        for (std::ptrdiff_t k = -1; k <= nz; ++k) {
          const bool ghost =
              (i < 0 || i >= nx || j < 0 || j >= ny || k < 0 || k >= nz);
          if (!ghost) continue;
          const auto gi = static_cast<std::ptrdiff_t>(g.range(0).lo) + i;
          const auto gj = static_cast<std::ptrdiff_t>(g.range(1).lo) + j;
          const auto gk = static_cast<std::ptrdiff_t>(g.range(2).lo) + k;
          if (gi < 0 || gi >= static_cast<std::ptrdiff_t>(kN) || gj < 0 ||
              gj >= static_cast<std::ptrdiff_t>(kM) || gk < 0 ||
              gk >= static_cast<std::ptrdiff_t>(kL)) {
            continue;
          }
          EXPECT_EQ(g(i, j, k),
                    tagval3(static_cast<std::size_t>(gi),
                            static_cast<std::size_t>(gj),
                            static_cast<std::size_t>(gk)))
              << "rank " << p.rank() << " ghost (" << i << "," << j << "," << k
              << ")";
        }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, Exchange3DP, testing::Values(1, 2, 4, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
