// Tests for the persistent halo-exchange plans (meshspectral/plan.hpp and
// the one-grid-per-rank ExchangePlan2D in blockplan.hpp):
// halo correctness on non-square and odd-sized grids, periodic vs
// non-periodic vs mixed boundaries, width-2 halos, one-round message
// counts, snapshot-at-begin semantics, re-entry across iterations without
// replanning, the overlapped stencil helper, 3-D plans, and the split-phase
// row/column redistribution plans.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa;
using mesh::Grid2D;
using mesh::Grid3D;

double tagval(std::size_t gi, std::size_t gj) {
  return static_cast<double>(gi) * 1000.0 + static_cast<double>(gj);
}

double tagval3(std::size_t i, std::size_t j, std::size_t k) {
  return static_cast<double>(i) * 1e6 + static_cast<double>(j) * 1e3 +
         static_cast<double>(k);
}

std::size_t wrap(std::ptrdiff_t v, std::size_t n) {
  const auto m = static_cast<std::ptrdiff_t>(n);
  return static_cast<std::size_t>(((v % m) + m) % m);
}

/// Check every ghost cell of `g` (all `ghost` layers, corners included):
/// in-domain ghosts must hold the owner's tagval; out-of-domain ghosts must
/// hold `sentinel` (untouched). Periodic axes wrap the expectation instead.
void expect_ghosts(const Grid2D<double>& g, std::size_t kn, std::size_t km,
                   mesh::Periodicity periodic, double sentinel, int rank) {
  const auto nx = static_cast<std::ptrdiff_t>(g.nx());
  const auto ny = static_cast<std::ptrdiff_t>(g.ny());
  const auto gw = static_cast<std::ptrdiff_t>(g.ghost());
  for (std::ptrdiff_t i = -gw; i < nx + gw; ++i) {
    for (std::ptrdiff_t j = -gw; j < ny + gw; ++j) {
      const bool ghost = (i < 0 || i >= nx || j < 0 || j >= ny);
      if (!ghost) continue;
      auto gi = static_cast<std::ptrdiff_t>(g.x_range().lo) + i;
      auto gj = static_cast<std::ptrdiff_t>(g.y_range().lo) + j;
      const bool in_x = gi >= 0 && gi < static_cast<std::ptrdiff_t>(kn);
      const bool in_y = gj >= 0 && gj < static_cast<std::ptrdiff_t>(km);
      if ((!in_x && !periodic.x) || (!in_y && !periodic.y)) {
        EXPECT_EQ(g(i, j), sentinel)
            << "rank " << rank << " ghost (" << i << "," << j << ") touched";
        continue;
      }
      const std::size_t wi = periodic.x ? wrap(gi, kn) : static_cast<std::size_t>(gi);
      const std::size_t wj = periodic.y ? wrap(gj, km) : static_cast<std::size_t>(gj);
      EXPECT_EQ(g(i, j), tagval(wi, wj))
          << "rank " << rank << " ghost (" << i << "," << j << ")";
    }
  }
}

// ------------------------------------------------------- halo correctness --

struct PlanCase {
  int nprocs;
  std::size_t nx, ny, ghost;
  mesh::Periodicity periodic;
};

class PlanHalo : public testing::TestWithParam<PlanCase> {};

TEST_P(PlanHalo, GhostsCorrectEverywhere) {
  const auto c = GetParam();
  const auto pg = mpl::CartGrid2D::near_square(c.nprocs);
  mpl::spmd_run(c.nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(c.nx, c.ny, pg, p.rank(), c.ghost);
    g.fill(-7.0);
    g.init_from_global(&tagval);
    mesh::ExchangePlan2D plan(pg, p.rank(), g,
                              mesh::ExchangePlan2D::Options{c.periodic, true, 0});
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
    expect_ghosts(g, c.nx, c.ny, c.periodic, -7.0, p.rank());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanHalo,
    testing::Values(
        // Non-square and odd-sized grids, open boundaries.
        PlanCase{2, 13, 7, 1, {false, false}},
        PlanCase{3, 11, 5, 1, {false, false}},
        PlanCase{4, 13, 9, 1, {false, false}},
        PlanCase{6, 17, 11, 1, {false, false}},
        // Width-2 halos, open and fully periodic.
        PlanCase{4, 10, 9, 2, {false, false}},
        PlanCase{4, 10, 9, 2, {true, true}},
        PlanCase{9, 13, 11, 2, {true, true}},
        // Periodic and mixed periodicity, including single-rank axes.
        PlanCase{1, 8, 6, 1, {true, true}},
        PlanCase{2, 8, 6, 1, {true, true}},
        PlanCase{4, 8, 6, 1, {true, false}},
        PlanCase{4, 8, 6, 1, {false, true}},
        PlanCase{6, 9, 7, 1, {true, true}}),
    [](const testing::TestParamInfo<PlanCase>& info) {
      const auto& c = info.param;
      std::string name = "P" + std::to_string(c.nprocs) + "_" +
                         std::to_string(c.nx) + "x" + std::to_string(c.ny) +
                         "_g" + std::to_string(c.ghost) +
                         (c.periodic.x ? "_px" : "") + (c.periodic.y ? "_py" : "");
      return name;
    });

// ------------------------------------------------------ one-round property --

TEST(ExchangePlan, WidthTwoHaloCrossesInOneRound) {
  // A width-2 halo must cost the same number of messages as width-1: one
  // round to every neighbor, no per-axis relay.
  const int nprocs = 4;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);  // 2x2
  for (const std::size_t ghost : {std::size_t{1}, std::size_t{2}}) {
    mpl::TraceSnapshot trace;
    mpl::spmd_collect<int>(
        nprocs,
        [&](mpl::Process& p) {
          Grid2D<double> g(12, 12, pg, p.rank(), ghost);
          mesh::ExchangePlan2D plan(pg, p.rank(), g);
          plan.begin_exchange(p, g);
          plan.end_exchange(p, g);
          return 0;
        },
        &trace);
    // 2x2 grid: 4 orthogonal pairs + 2 diagonal pairs, 2 messages each.
    EXPECT_EQ(trace.messages, 12u) << "ghost width " << ghost;
  }
}

TEST(ExchangePlan, PeerReachedThroughSixDirectionsGetsOneMessage) {
  // Two ranks along a periodic x axis, periodic y one rank wide, corners
  // on: each rank's x neighbor sits at (+-1, -1), (+-1, 0) and (+-1, +1),
  // six directions, and all six strips travel in one coalesced message per
  // round. The two y faces are self-wrap copies. (PlanHalo's P2 periodic
  // case checks the ghost values of this configuration.)
  const mpl::CartGrid2D pg(2, 1);
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      2,
      [&](mpl::Process& p) {
        Grid2D<double> g(8, 6, pg, p.rank(), 1);
        mesh::ExchangePlan2D plan(
            pg, p.rank(), g,
            mesh::ExchangePlan2D::Options{{true, true}, true, 0});
        EXPECT_EQ(plan.transfer_count(), 1u);
        EXPECT_EQ(plan.local_copy_count(), 2u);
        plan.exchange(p, g);
        return 0;
      },
      &trace);
  EXPECT_EQ(trace.messages, 2u);
}

TEST(ExchangePlan, CornerlessPlanSkipsDiagonalMessages) {
  const int nprocs = 4;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);  // 2x2
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      nprocs,
      [&](mpl::Process& p) {
        Grid2D<double> g(12, 12, pg, p.rank(), 1);
        mesh::ExchangePlan2D plan(
            pg, p.rank(), g, mesh::ExchangePlan2D::Options{{}, false, 0});
        plan.begin_exchange(p, g);
        plan.end_exchange(p, g);
        return 0;
      },
      &trace);
  EXPECT_EQ(trace.messages, 8u);  // orthogonal pairs only
}

// ------------------------------------------------------ begin/end semantics --

TEST(ExchangePlan, BeginSnapshotsTheSentData) {
  // Interior writes between begin and end must not leak into what the
  // neighbors receive — the split phases are safe to overlap with updates.
  const int nprocs = 4;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(8, 8, pg, p.rank(), 1);
    g.init_from_global(&tagval);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);
    plan.begin_exchange(p, g);
    // Scribble over the entire interior while the halos are in flight.
    mesh::for_interior(g, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
      g(i, j) = -1.0;
    });
    plan.end_exchange(p, g);
    // Ghosts hold the values from the time of begin, not the scribbles.
    expect_ghosts(g, 8, 8, {false, false}, 0.0, p.rank());
  });
}

TEST(ExchangePlan, ReenteredAcrossIterationsWithoutReplanning) {
  // One plan, many begin/end pairs, evolving data: every iteration's ghosts
  // must reflect that iteration's interior. This is the persistent-plan
  // contract the solvers rely on.
  const int nprocs = 6;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 11, kM = 9;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> g(kN, kM, pg, p.rank(), 1);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);
    for (int iter = 0; iter < 5; ++iter) {
      const double shift = 1e7 * iter;
      g.init_from_global([&](std::size_t gi, std::size_t gj) {
        return tagval(gi, gj) + shift;
      });
      plan.begin_exchange(p, g);
      EXPECT_TRUE(plan.in_flight());
      plan.end_exchange(p, g);
      EXPECT_FALSE(plan.in_flight());
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
            continue;
          }
          EXPECT_EQ(g(i, j), tagval(static_cast<std::size_t>(gi),
                                    static_cast<std::size_t>(gj)) +
                                 shift)
              << "iter " << iter << " rank " << p.rank() << " (" << i << ","
              << j << ")";
        }
      }
    }
  });
}

TEST(ExchangePlan, OnePlanServesSwappedGrids) {
  // A plan holds no grid reference: after std::swap of a ping-pong pair the
  // same plan must keep working on either buffer.
  const int nprocs = 4;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> a(10, 10, pg, p.rank(), 1), b(10, 10, pg, p.rank(), 1);
    a.init_from_global(&tagval);
    b.init_from_global([](std::size_t i, std::size_t j) {
      return 5e8 + tagval(i, j);
    });
    mesh::ExchangePlan2D plan(pg, p.rank(), a);
    plan.begin_exchange(p, a);
    plan.end_exchange(p, a);
    std::swap(a, b);
    plan.begin_exchange(p, a);  // now the other buffer
    plan.end_exchange(p, a);
    const auto nx = static_cast<std::ptrdiff_t>(a.nx());
    if (a.x_range().lo > 0) {
      EXPECT_EQ(a(-1, 0), 5e8 + tagval(a.x_range().lo - 1, a.y_range().lo));
    }
    (void)nx;
  });
}

// ------------------------------------------------------ overlapped stencil --

TEST(ExchangePlan, OverlappedStencilMatchesBlockingStencil) {
  // apply_stencil_overlapped must produce exactly what a blocking exchange
  // followed by apply_stencil produces — for a 9-point stencil that reads
  // the ghost corners.
  const int nprocs = 4;
  const auto pg = mpl::CartGrid2D::near_square(nprocs);
  constexpr std::size_t kN = 12, kM = 10;
  const auto nine_point = [](const Grid2D<double>& u, std::ptrdiff_t i,
                             std::ptrdiff_t j) {
    return u(i - 1, j - 1) + u(i - 1, j) + u(i - 1, j + 1) + u(i, j - 1) +
           u(i, j) + u(i, j + 1) + u(i + 1, j - 1) + u(i + 1, j) +
           u(i + 1, j + 1);
  };
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid2D<double> u1(kN, kM, pg, p.rank(), 1), out1(kN, kM, pg, p.rank(), 1);
    Grid2D<double> u2(kN, kM, pg, p.rank(), 1), out2(kN, kM, pg, p.rank(), 1);
    const auto init = [](std::size_t gi, std::size_t gj) {
      return std::sin(static_cast<double>(gi * 17 + gj * 3));
    };
    u1.init_from_global(init);
    u2.init_from_global(init);

    mesh::ExchangePlan2D blocking(pg, p.rank(), u1);
    blocking.exchange(p, u1);
    mesh::apply_stencil(out1, u1, nine_point);

    mesh::ExchangePlan2D plan(pg, p.rank(), u2);
    mesh::apply_stencil_overlapped(p, plan, out2, u2, 1, nine_point);

    EXPECT_EQ(out1.interior(), out2.interior());
  });
}

// ------------------------------------------------------------------- 3-D --

TEST(ExchangePlan3D, GhostsCorrectOnOddGridInclCornersWidth2) {
  const int nprocs = 8;
  const auto pg = mpl::CartGrid3D::near_cubic(nprocs);
  constexpr std::size_t kN = 7, kM = 9, kL = 5;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid3D<double> g(kN, kM, kL, pg, p.rank(), 2);
    g.init_from_global(&tagval3);
    mesh::ExchangePlan3D plan(pg, p.rank(), g);
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    const auto nz = static_cast<std::ptrdiff_t>(g.nz());
    for (std::ptrdiff_t i = -2; i < nx + 2; ++i)
      for (std::ptrdiff_t j = -2; j < ny + 2; ++j)
        for (std::ptrdiff_t k = -2; k < nz + 2; ++k) {
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
          ASSERT_EQ(g(i, j, k),
                    tagval3(static_cast<std::size_t>(gi),
                            static_cast<std::size_t>(gj),
                            static_cast<std::size_t>(gk)))
              << "rank " << p.rank() << " ghost (" << i << "," << j << "," << k
              << ")";
        }
  });
}

TEST(ExchangePlan3D, PeriodicWrapsAllAxes) {
  const int nprocs = 4;
  const auto pg = mpl::CartGrid3D::near_cubic(nprocs);
  constexpr std::size_t kN = 6, kM = 4, kL = 4;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    Grid3D<double> g(kN, kM, kL, pg, p.rank(), 1);
    g.init_from_global(&tagval3);
    mesh::ExchangePlan3D plan(
        pg, p.rank(), g,
        mesh::ExchangePlan3D::Options{mesh::Periodicity3{true, true, true},
                                      true, 0});
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    const auto nz = static_cast<std::ptrdiff_t>(g.nz());
    for (std::ptrdiff_t i = -1; i <= nx; ++i)
      for (std::ptrdiff_t j = -1; j <= ny; ++j)
        for (std::ptrdiff_t k = -1; k <= nz; ++k) {
          const bool ghost =
              (i < 0 || i >= nx || j < 0 || j >= ny || k < 0 || k >= nz);
          if (!ghost) continue;
          const std::size_t gi =
              wrap(static_cast<std::ptrdiff_t>(g.range(0).lo) + i, kN);
          const std::size_t gj =
              wrap(static_cast<std::ptrdiff_t>(g.range(1).lo) + j, kM);
          const std::size_t gk =
              wrap(static_cast<std::ptrdiff_t>(g.range(2).lo) + k, kL);
          ASSERT_EQ(g(i, j, k), tagval3(gi, gj, gk))
              << "rank " << p.rank() << " ghost (" << i << "," << j << "," << k
              << ")";
        }
  });
}

// ---------------------------------------------------- redistribution plans --

TEST(RedistributePlan, SplitPhaseRoundTripReusedAcrossTransforms) {
  const int nprocs = 4;
  constexpr std::size_t kN = 11, kM = 7;  // deliberately not divisible by P
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    mesh::RowsToColsPlan r2c(p.size(), p.rank(), kN, kM);
    mesh::ColsToRowsPlan c2r(p.size(), p.rank(), kN, kM);
    for (int iter = 0; iter < 3; ++iter) {
      const double shift = 1e7 * iter;
      mesh::RowDistributed<double> rows(kN, kM, p.size(), p.rank());
      rows.init_from_global([&](std::size_t r, std::size_t c) {
        return tagval(r, c) + shift;
      });
      mesh::ColDistributed<double> cols(kN, kM, p.size(), p.rank());
      r2c.begin_exchange(p, rows);
      // (a caller would compute here while the parts are in flight)
      r2c.end_exchange(p, cols);
      for (std::size_t c = 0; c < cols.cols_local(); ++c) {
        for (std::size_t r = 0; r < kN; ++r) {
          ASSERT_EQ(cols.at(r, c), tagval(r, cols.cols().lo + c) + shift);
        }
      }
      mesh::RowDistributed<double> rows2(kN, kM, p.size(), p.rank());
      c2r.begin_exchange(p, cols);
      c2r.end_exchange(p, rows2);
      for (std::size_t r = 0; r < rows2.rows_local(); ++r) {
        for (std::size_t c = 0; c < kM; ++c) {
          ASSERT_EQ(rows2.at(r, c), tagval(rows2.rows().lo + r, c) + shift);
        }
      }
    }
  });
}

// ------------------------------------------------------------ degenerate --

TEST(ExchangePlan, SingleRankNonPeriodicIsEmpty) {
  mpl::spmd_run(1, [&](mpl::Process& p) {
    const mpl::CartGrid2D pg(1, 1);
    Grid2D<double> g(6, 6, pg, p.rank(), 1);
    g.fill(3.0);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);
    EXPECT_EQ(plan.transfer_count(), 0u);
    EXPECT_EQ(plan.local_copy_count(), 0u);
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);  // no-ops
  });
}

TEST(ExchangePlan, GhostWidthZeroIsEmpty) {
  mpl::spmd_run(2, [&](mpl::Process& p) {
    const mpl::CartGrid2D pg(2, 1);
    Grid2D<double> g(6, 6, pg, p.rank(), 0);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);
    EXPECT_EQ(plan.transfer_count(), 0u);
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
  });
}

// ------------------------------------------------------------ shape guard --

TEST(ExchangePlan, MismatchedGridShapeThrowsTyped) {
  // A plan compiled for one grid shape must refuse — with the typed
  // PlanShapeMismatch, before any message goes out — a grid whose local
  // extents or ghost width differ; a shape-identical grid still works.
  mpl::spmd_run(2, [&](mpl::Process& p) {
    const mpl::CartGrid2D pg(2, 1);
    Grid2D<double> g(8, 6, pg, p.rank(), 1);
    g.fill(1.0);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);

    Grid2D<double> wrong_extent(12, 6, pg, p.rank(), 1);
    EXPECT_THROW(plan.begin_exchange(p, wrong_extent),
                 mesh::PlanShapeMismatch);
    Grid2D<double> wrong_ghost(8, 6, pg, p.rank(), 2);
    EXPECT_THROW(plan.begin_exchange(p, wrong_ghost),
                 mesh::PlanShapeMismatch);
    // PlanShapeMismatch is a logic_error (catchable as such).
    try {
      plan.begin_exchange(p, wrong_extent);
      FAIL() << "expected PlanShapeMismatch";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos);
    }
    // The failed begins must not have left a round in flight: the plan is
    // still usable with a conforming grid.
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
  });
}

TEST(ExchangePlan, GridOverAnotherWindowThrowsTyped) {
  // Same nx, ny and ghost as the compiled section, but another part of the
  // domain (rank 1's window handed to rank 0's plan, and the same window of
  // a wider domain): still not the grid the plan was compiled for.
  mpl::spmd_run(2, [&](mpl::Process& p) {
    const mpl::CartGrid2D pg(2, 1);
    Grid2D<double> g(8, 6, pg, p.rank(), 1);
    mesh::ExchangePlan2D plan(pg, p.rank(), g);
    Grid2D<double> other_window(8, 6, pg, 1 - p.rank(), 1);
    Grid2D<double> other_domain(8, 7, g.x_range(), g.y_range(), 1);
    ASSERT_EQ(other_window.nx(), g.nx());
    for (Grid2D<double>* wrong : {&other_window, &other_domain}) {
      try {
        plan.begin_exchange(p, *wrong);
        FAIL() << "expected PlanShapeMismatch";
      } catch (const mesh::PlanShapeMismatch& e) {
        EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos);
      }
      EXPECT_FALSE(plan.in_flight());
    }
    plan.exchange(p, g);
  });
}

TEST(ExchangePlan3D, MismatchedGridShapeThrowsTyped) {
  mpl::spmd_run(2, [&](mpl::Process& p) {
    const mpl::CartGrid3D pg(2, 1, 1);
    Grid3D<double> g(8, 6, 4, pg, p.rank(), 1);
    mesh::ExchangePlan3D plan(pg, p.rank(), g);
    Grid3D<double> wrong(8, 6, 8, pg, p.rank(), 1);
    EXPECT_THROW(plan.begin_exchange(p, wrong), mesh::PlanShapeMismatch);
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
  });
}

}  // namespace
