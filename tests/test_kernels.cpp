// Tests for the layout-aware kernel layer (meshspectral/field.hpp,
// meshspectral/kernels.hpp) and the padded grid storage underneath it:
//
//   * layout: padded row/pencil strides, 64-byte row alignment, view/grid
//     aliasing, SoA<->AoS round trips;
//   * halo correctness on padded storage: pack/unpack round trips and a
//     ghost-width-2 exchange regression (the padded stride must never leak
//     into the wire format);
//   * the reduction contract: absdiff_max_row equals a strict forward-order
//     fold bitwise, NaN and signed zeros included, and the fused
//     jacobi_row_absdiff_max equals jacobi_row then absdiff_max_row;
//   * the bitwise-equality battery: for poisson, euler2d, and fdtd3d, the
//     kernel sweeps must reproduce a plain per-point oracle exactly
//     (poisson_v1; tests/seq_oracles.hpp for euler2d and fdtd3d) — at np
//     in {1, 2, 4, 8}, with odd extents, and on block-set drivers with
//     non-divisible block shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>

#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "apps/poisson/poisson.hpp"
#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"
#include "seq_oracles.hpp"

namespace {

using namespace ppa;

bool is_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kGridAlignment == 0;
}

// ------------------------------------------------------------- layout --

TEST(KernelLayout, PaddedStrideRoundsToCacheLine) {
  EXPECT_EQ(padded_stride<double>(1), 8u);
  EXPECT_EQ(padded_stride<double>(8), 8u);
  EXPECT_EQ(padded_stride<double>(9), 16u);
  EXPECT_EQ(padded_stride<float>(17), 32u);
  // 24-byte elements: quantum is 64/gcd(64,24) = 8 elements.
  struct S24 { double a, b, c; };
  EXPECT_EQ(padded_stride<S24>(5), 8u);
  EXPECT_EQ(padded_stride<S24>(5) * sizeof(S24) % kGridAlignment, 0u);
}

TEST(KernelLayout, Grid2DRowsAreAlignedAndPadded) {
  // Odd ny and ghost 2: the nominal row width (53 + 4 = 57) is not a
  // multiple of 8 doubles, so padding must kick in.
  mesh::Grid2D<double> g(67, 53, 2);
  EXPECT_GE(g.row_stride(), g.ny() + 2 * g.ghost());
  EXPECT_EQ(g.row_stride() * sizeof(double) % kGridAlignment, 0u);
  for (std::ptrdiff_t i = -2; i < static_cast<std::ptrdiff_t>(g.nx()) + 2; ++i) {
    EXPECT_TRUE(is_aligned(g.row(i) - g.ghost())) << "row " << i;
  }
  // row(i)[j] and operator() address the same element.
  g.init_from_global([](std::size_t gi, std::size_t gj) {
    return static_cast<double>(gi * 1000 + gj);
  });
  for (std::size_t i = 0; i < g.nx(); ++i) {
    for (std::size_t j = 0; j < g.ny(); ++j) {
      EXPECT_EQ(&g.row(static_cast<std::ptrdiff_t>(i))[j],
                &g(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j)));
    }
  }
}

TEST(KernelLayout, Grid3DPencilsAreAlignedAndPadded) {
  mesh::Grid3D<double> g(9, 7, 11, 1);
  EXPECT_GE(g.pencil_stride(), g.nz() + 2 * g.ghost());
  EXPECT_EQ(g.pencil_stride() * sizeof(double) % kGridAlignment, 0u);
  for (std::ptrdiff_t i = -1; i <= static_cast<std::ptrdiff_t>(g.nx()); ++i) {
    for (std::ptrdiff_t j = -1; j <= static_cast<std::ptrdiff_t>(g.ny()); ++j) {
      EXPECT_TRUE(is_aligned(g.pencil(i, j) - g.ghost()));
    }
  }
  g.init_from_global([](std::size_t a, std::size_t b, std::size_t c) {
    return static_cast<double>(a * 10000 + b * 100 + c);
  });
  for (std::size_t i = 0; i < g.nx(); ++i)
    for (std::size_t j = 0; j < g.ny(); ++j)
      for (std::size_t k = 0; k < g.nz(); ++k)
        EXPECT_EQ(&g.pencil(static_cast<std::ptrdiff_t>(i),
                            static_cast<std::ptrdiff_t>(j))[k],
                  &g(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j),
                     static_cast<std::ptrdiff_t>(k)));
}

TEST(KernelLayout, FieldViewAliasesGridStorage) {
  mesh::Grid2D<double> g(12, 10, 1);
  auto v = mesh::field_view(g);
  EXPECT_EQ(v.stride, g.row_stride());
  v(3, 4) = 42.0;
  EXPECT_EQ(g(3, 4), 42.0);
  g(-1, -1) = 7.0;
  EXPECT_EQ(v(-1, -1), 7.0);
  const auto cv = mesh::field_view(std::as_const(g));
  EXPECT_EQ(cv(3, 4), 42.0);
}

TEST(KernelLayout, SoAFieldRoundTripsAoS) {
  constexpr std::size_t kNC = 3;
  mesh::Grid2D<std::array<double, kNC>> aos(9, 7, 2);
  // Fill interior AND ghosts with distinct values.
  for (std::ptrdiff_t i = -2; i < 11; ++i) {
    for (std::ptrdiff_t j = -2; j < 9; ++j) {
      for (std::size_t c = 0; c < kNC; ++c) {
        aos(i, j)[c] = static_cast<double>((i + 3) * 1000 + (j + 3) * 10 + c);
      }
    }
  }
  mesh::SoAField2D<double> soa(aos.nx(), aos.ny(), aos.ghost(), kNC);
  soa.from_aos(aos);
  for (std::size_t c = 0; c < kNC; ++c) {
    auto v = soa.component(c);
    EXPECT_TRUE(is_aligned(v.row(-2) - 2)) << "component " << c;
    EXPECT_EQ(v(0, 0), aos(0, 0)[c]);
    EXPECT_EQ(v(-2, -2), aos(-2, -2)[c]);
    EXPECT_EQ(v(8, 6), aos(8, 6)[c]);
  }
  mesh::Grid2D<std::array<double, kNC>> back(9, 7, 2);
  soa.to_aos(back);
  for (std::ptrdiff_t i = -2; i < 11; ++i)
    for (std::ptrdiff_t j = -2; j < 9; ++j) EXPECT_EQ(back(i, j), aos(i, j));
}

// -------------------------------------------- halo paths on padded rows --

TEST(KernelPadding, PackUnpackRoundTripWithGhost2) {
  mesh::Grid2D<double> src(13, 11, 2), dst(13, 11, 2);
  src.init_from_global([](std::size_t gi, std::size_t gj) {
    return static_cast<double>(gi) * 97.0 + static_cast<double>(gj) * 1.5;
  });
  // Regions deliberately spanning ghost coordinates and odd widths.
  const struct { std::ptrdiff_t i0, i1, j0, j1; } regions[] = {
      {0, 13, 0, 11},    // whole interior
      {-2, 2, -2, 11},   // low-edge strip incl. ghosts
      {11, 13, 9, 13},   // high corner incl. ghosts
      {3, 4, -2, 13},    // single full row
  };
  for (const auto& r : regions) {
    // Make ghost source values distinct too.
    for (std::ptrdiff_t i = r.i0; i < r.i1; ++i)
      for (std::ptrdiff_t j = r.j0; j < r.j1; ++j)
        src(i, j) = static_cast<double>(i * 100 + j);
    const auto buf = src.pack_region(r.i0, r.i1, r.j0, r.j1);
    ASSERT_EQ(buf.size(),
              static_cast<std::size_t>((r.i1 - r.i0) * (r.j1 - r.j0)));
    dst.unpack_region(r.i0, r.i1, r.j0, r.j1, buf);
    for (std::ptrdiff_t i = r.i0; i < r.i1; ++i)
      for (std::ptrdiff_t j = r.j0; j < r.j1; ++j)
        EXPECT_EQ(dst(i, j), src(i, j)) << i << "," << j;
  }
}

TEST(KernelPadding, Grid3DPackUnpackRoundTrip) {
  mesh::Grid3D<double> src(6, 5, 7, 1), dst(6, 5, 7, 1);
  src.init_from_global([](std::size_t a, std::size_t b, std::size_t c) {
    return static_cast<double>(a * 100 + b * 10 + c);
  });
  const auto buf = src.pack_region(-1, 6, 0, 5, -1, 8);
  ASSERT_EQ(buf.size(), 7u * 5u * 9u);
  dst.unpack_region(-1, 6, 0, 5, -1, 8, buf);
  for (std::ptrdiff_t i = -1; i < 6; ++i)
    for (std::ptrdiff_t j = 0; j < 5; ++j)
      for (std::ptrdiff_t k = -1; k < 8; ++k)
        EXPECT_EQ(dst(i, j, k), src(i, j, k));
}

TEST(KernelPadding, ExchangeGhost2OnPaddedRows) {
  // Regression: with padded rows and ghost width 2, a full plan exchange
  // must land every ghost cell on the value the owning rank holds — i.e.
  // the padded stride stays out of the wire format. Odd global extents so
  // sections have different row strides/padding amounts.
  constexpr int kP = 4;
  const auto pgrid = mpl::CartGrid2D::near_square(kP);
  const auto f = [](std::size_t gi, std::size_t gj) {
    return static_cast<double>(gi) * 131.0 + static_cast<double>(gj) * 0.25;
  };
  mpl::spmd_run(kP, [&](mpl::Process& p) {
    mesh::Grid2D<double> g(21, 17, pgrid, p.rank(), 2);
    g.init_from_global(f);
    mesh::ExchangePlan2D plan(pgrid, p.rank(), g,
                              mesh::ExchangePlan2D::Options{{}, true, 0});
    plan.begin_exchange(p, g);
    plan.end_exchange(p, g);
    const auto gd = static_cast<std::ptrdiff_t>(g.ghost());
    for (std::ptrdiff_t i = -gd; i < static_cast<std::ptrdiff_t>(g.nx()) + gd; ++i) {
      for (std::ptrdiff_t j = -gd; j < static_cast<std::ptrdiff_t>(g.ny()) + gd; ++j) {
        const auto gi = static_cast<std::ptrdiff_t>(g.x_range().lo) + i;
        const auto gj = static_cast<std::ptrdiff_t>(g.y_range().lo) + j;
        const bool inside = gi >= 0 && gi < 21 && gj >= 0 && gj < 17;
        if (!inside) continue;  // off-domain ghosts stay untouched
        EXPECT_EQ(g(i, j), f(static_cast<std::size_t>(gi),
                             static_cast<std::size_t>(gj)))
            << "rank " << p.rank() << " at (" << i << "," << j << ")";
      }
    }
  });
}

// ------------------------------------------------ jacobi kernel parity --

TEST(KernelSweeps, TiledJacobiMatchesNaiveAndPerPointBitwise) {
  // Odd extents and a tiny tile force ragged tiles; all three sweeps must
  // agree bitwise because each output element sees the same expression.
  mesh::Grid2D<double> in(37, 29, 1), f(37, 29, 1);
  mesh::Grid2D<double> out_point(37, 29, 1), out_rows(37, 29, 1),
      out_tiled(37, 29, 1);
  in.init_from_global([](std::size_t gi, std::size_t gj) {
    return std::sin(static_cast<double>(gi) * 0.7) +
           std::cos(static_cast<double>(gj) * 1.3);
  });
  f.init_from_global([](std::size_t gi, std::size_t gj) {
    return static_cast<double>(gi + gj) * 0.01;
  });
  const double h2 = 0.015625;
  const mesh::Region2 r{1, 36, 1, 28};

  mesh::for_region(r, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
    out_point(i, j) =
        (in(i - 1, j) + in(i + 1, j) + in(i, j - 1) + in(i, j + 1) -
         h2 * f(i, j)) *
        0.25;
  });
  const auto iv = mesh::field_view(std::as_const(in));
  const auto fv = mesh::field_view(std::as_const(f));
  mesh::kern::jacobi_sweep(mesh::field_view(out_rows), iv, fv, h2, r);
  mesh::kern::jacobi_sweep_tiled(mesh::field_view(out_tiled), iv, fv, h2, r,
                                 /*tile_j=*/7);

  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) {
      EXPECT_EQ(out_rows(i, j), out_point(i, j)) << i << "," << j;
      EXPECT_EQ(out_tiled(i, j), out_point(i, j)) << i << "," << j;
    }
  }
}

// ------------------------------------------- reduction kernel contract --

/// The contract absdiff_max_row keeps: a strict forward-order fold.
double forward_absdiff_max(const double* a, const double* b, std::ptrdiff_t j0,
                           std::ptrdiff_t j1, double running) {
  for (std::ptrdiff_t j = j0; j < j1; ++j) {
    running = std::max(running, std::abs(a[j] - b[j]));
  }
  return running;
}

TEST(KernelReduction, AbsdiffMaxMatchesForwardOrderBitwise) {
  // The kernel keeps several running maxima and combines them at the end;
  // the result must equal the forward fold bit for bit, NaN payloads and
  // signed zeros included, at every length around the lane count.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const std::array<double, 12> pool{
      kNaN,    -kNaN,        0.0, -0.0,  kInf, -kInf,
      kDenorm, -3 * kDenorm, 1.5, -2.25, 5.0,  1e300};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::array<double, 24> a{}, b{};
  for (std::ptrdiff_t len = 0; len <= 17; ++len) {
    for (const std::ptrdiff_t j0 : {0, 1, 3}) {
      for (const double running : {0.0, -0.0, kNaN, 5.0}) {
        for (int trial = 0; trial < 200; ++trial) {
          for (std::size_t k = 0; k < a.size(); ++k) {
            a[k] = pool[pick(rng)];
            b[k] = pool[pick(rng)];
          }
          const auto want = forward_absdiff_max(a.data(), b.data(), j0,
                                                j0 + len, running);
          const auto got = mesh::kern::absdiff_max_row(a.data(), b.data(), j0,
                                                       j0 + len, running);
          ASSERT_EQ(bits(got), bits(want))
              << "len=" << len << " j0=" << j0 << " running=" << running
              << " trial=" << trial;
        }
      }
    }
  }
}

TEST(KernelReduction, JacobiRowAbsdiffMaxMatchesSeparatePassesBitwise) {
  // The fused sweep must write exactly jacobi_row's row (and nothing
  // outside [j0, j1)) and return exactly absdiff_max_row's fold of the new
  // row against the centre input row, on inputs that exercise NaN, signed
  // zeros, infinities and denormals. When both operands of an add are NaN,
  // which one the sum carries is the compiler's choice (it may swap the
  // operands of a commutative add), so the input NaN is the one the
  // hardware generates itself (inf - inf): every NaN in the computation is
  // then the same bits. The running max may be any NaN; it is only kept.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  volatile double inf = kInf;  // computed at run time, not folded
  const double generated_nan = inf - inf;
  const std::array<double, 11> pool{
      generated_nan, 0.0, -0.0,  kInf, -kInf, kDenorm, -3 * kDenorm,
      1.5,           -2.25, 5.0, 1e300};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::mt19937 rng(2468);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  // Centre row padded by one on each side so uc[j - 1] and uc[j + 1] stay
  // in bounds for every j0 >= 0 and j1 <= 20.
  std::array<double, 24> um{}, ucp{}, up{}, f{}, out_want{}, out_got{};
  const double* uc = ucp.data() + 1;
  for (std::ptrdiff_t len = 0; len <= 17; ++len) {
    for (const std::ptrdiff_t j0 : {0, 1, 3}) {
      for (const double running : {0.0, -0.0, kNaN, 5.0}) {
        for (int trial = 0; trial < 200; ++trial) {
          for (auto* row : {&um, &ucp, &up, &f}) {
            for (double& v : *row) v = pool[pick(rng)];
          }
          const double h2 = trial % 2 == 0 ? 0.01 : pool[pick(rng)];
          out_want.fill(-7.0);
          out_got.fill(-7.0);
          mesh::kern::jacobi_row(out_want.data(), um.data(), uc, up.data(),
                                 f.data(), h2, j0, j0 + len);
          const double want = mesh::kern::absdiff_max_row(
              out_want.data(), uc, j0, j0 + len, running);
          const double got = mesh::kern::jacobi_row_absdiff_max(
              out_got.data(), um.data(), uc, up.data(), f.data(), h2, j0,
              j0 + len, running);
          ASSERT_EQ(bits(got), bits(want))
              << "len=" << len << " j0=" << j0 << " running=" << running
              << " trial=" << trial;
          for (std::size_t k = 0; k < out_want.size(); ++k) {
            ASSERT_EQ(bits(out_got[k]), bits(out_want[k]))
                << "out[" << k << "] len=" << len << " j0=" << j0
                << " trial=" << trial;
          }
        }
      }
    }
  }
}

// ------------------------------------- app batteries: kernel == oracle --

/// Bitwise equality of two dense fields; reports the first mismatch.
::testing::AssertionResult bitwise_equal(const Array2D<double>& got,
                                         const Array2D<double>& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " != "
           << want.rows() << "x" << want.cols();
  }
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      if (std::bit_cast<std::uint64_t>(got(i, j)) !=
          std::bit_cast<std::uint64_t>(want(i, j))) {
        return ::testing::AssertionFailure()
               << "at (" << i << "," << j << "): " << got(i, j)
               << " != " << want(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The block-set drivers' non-divisible multi-block map: 3x3 blocks dealt
/// round-robin over np ranks.
mesh::BlockConfig round_robin_3x3(int np) {
  mesh::BlockConfig config;
  config.nbx = 3;
  config.nby = 3;
  config.owner = mesh::distribute_blocks_round_robin(9, np);
  return config;
}

class KernelsP : public testing::TestWithParam<int> {};

TEST_P(KernelsP, PoissonKernelMatchesV1Bitwise) {
  const int np = GetParam();
  app::PoissonProblem prob;
  prob.nx = 33;
  prob.ny = 27;  // odd, != nx: exercises ragged padding per section
  prob.tolerance = 1e-6;
  prob.g = [](double x, double y) { return x * x - y * y; };

  const auto v1 = app::poisson_v1(prob);
  for (const auto& config : {mesh::BlockConfig{}, round_robin_3x3(np)}) {
    const auto kernel = app::poisson_spmd(prob, np, config);
    EXPECT_EQ(kernel.iterations, v1.iterations) << "np=" << np;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.final_diffmax),
              std::bit_cast<std::uint64_t>(v1.final_diffmax))
        << "np=" << np;
    EXPECT_TRUE(bitwise_equal(kernel.u, v1.u))
        << "np=" << np << " nbx=" << config.nbx;
  }
}

TEST_P(KernelsP, EulerKernelMatchesOracleBitwise) {
  const int np = GetParam();
  app::CfdConfig cfg;
  cfg.nx = 48;
  cfg.ny = 22;
  const auto oracle = oracle::euler_shock_interface(cfg, 12);
  for (const auto& config : {mesh::BlockConfig{}, round_robin_3x3(np)}) {
    EXPECT_TRUE(bitwise_equal(app::run_shock_interface(cfg, 12, np, config),
                              oracle))
        << "np=" << np << " nbx=" << config.nbx;
  }
}

TEST_P(KernelsP, FdtdKernelMatchesOracleBitwise) {
  const int np = GetParam();
  app::EmConfig cfg;
  cfg.n = 20;
  cfg.src_i = 5;
  cfg.src_j = 10;
  cfg.src_k = 10;
  EXPECT_TRUE(bitwise_equal(app::run_em_scattering(cfg, 6, np),
                            oracle::em_scattering(cfg, 6)))
      << "np=" << np;
}

INSTANTIATE_TEST_SUITE_P(NP, KernelsP, testing::Values(1, 2, 4, 8));

TEST(KernelBlocks, PoissonBlockDriverMatchesV1Bitwise) {
  // Non-divisible block shapes (3x2 blocks of a 31x23 grid on 2 ranks,
  // hand-picked owners) through the same kernels.
  app::PoissonProblem prob;
  prob.nx = 31;
  prob.ny = 23;
  prob.tolerance = 1e-5;
  prob.g = [](double x, double y) { return x + 2.0 * y; };
  mesh::BlockConfig config;
  config.nbx = 3;
  config.nby = 2;
  config.owner = {0, 1, 1, 0, 1, 0};

  const auto v1 = app::poisson_v1(prob);
  const auto kernel = app::poisson_spmd(prob, 2, config);
  EXPECT_EQ(kernel.iterations, v1.iterations);
  EXPECT_TRUE(bitwise_equal(kernel.u, v1.u));
}

TEST(KernelBlocks, EulerBlockDriverMatchesOracleBitwise) {
  // 2x3 blocks of a 40x18 grid on 2 ranks, with the scenario's inflow/
  // outflow x boundary and with a fully periodic box.
  app::CfdConfig cfg;
  cfg.nx = 40;
  cfg.ny = 18;
  mesh::BlockConfig config;
  config.nbx = 2;
  config.nby = 3;
  config.owner = {0, 1, 0, 1, 0, 1};
  for (const bool periodic_x : {false, true}) {
    cfg.periodic_x = periodic_x;
    EXPECT_TRUE(bitwise_equal(app::run_shock_interface(cfg, 8, 2, config),
                              oracle::euler_shock_interface(cfg, 8)))
        << "periodic_x=" << periodic_x;
  }
}

}  // namespace
