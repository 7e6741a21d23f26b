// Tests for the compressible-flow code (paper section 7.1): conservation on
// periodic domains, uniform-state preservation, process-count invariance
// (bitwise), positivity, shock propagation, and Rankine-Hugoniot setup.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <stdexcept>
#include <string>

#include "apps/cfd/euler2d.hpp"
#include "seq_oracles.hpp"

namespace {

using namespace ppa;
using app::CfdConfig;
using app::CfdSim;
using app::EulerState;

CfdConfig small_config() {
  CfdConfig cfg;
  cfg.nx = 48;
  cfg.ny = 16;
  cfg.lx = 3.0;
  cfg.ly = 1.0;
  return cfg;
}

TEST(CfdApp, RankineHugoniotPostShockState) {
  // Sanity of the shock relations at Mach 1.5 into (rho=1, p=1, gamma=1.4).
  const auto w = app::post_shock_state(1.5, 1.0, 1.0, 1.4);
  EXPECT_NEAR(w.p, 2.458333333, 1e-6);       // 1 + 2*1.4/2.4*(1.25)
  EXPECT_NEAR(w.rho, 1.862068966, 1e-6);     // 2.4*2.25/(0.4*2.25+2)
  EXPECT_GT(w.u, 0.0);
  EXPECT_DOUBLE_EQ(w.v, 0.0);
  // Mach 1 shock is no shock at all.
  const auto w1 = app::post_shock_state(1.0, 1.0, 1.0, 1.4);
  EXPECT_NEAR(w1.p, 1.0, 1e-12);
  EXPECT_NEAR(w1.rho, 1.0, 1e-12);
  EXPECT_NEAR(w1.u, 0.0, 1e-12);
}

TEST(CfdApp, PrimitiveConservedRoundtrip) {
  const app::EulerPrim w{1.7, 0.3, -0.2, 2.5};
  const auto s = app::to_conserved(w, 1.4);
  const auto back = app::to_primitive(s, 1.4);
  EXPECT_NEAR(back.rho, w.rho, 1e-14);
  EXPECT_NEAR(back.u, w.u, 1e-14);
  EXPECT_NEAR(back.v, w.v, 1e-14);
  EXPECT_NEAR(back.p, w.p, 1e-14);
}

TEST(CfdApp, UniformStateIsSteady) {
  auto cfg = small_config();
  cfg.periodic_x = true;
  const auto pgrid = mpl::CartGrid2D::near_square(4);
  mpl::spmd_run(4, [&](mpl::Process& p) {
    CfdSim sim(p, pgrid, cfg);
    const EulerState s0 = app::to_conserved({1.3, 0.2, -0.1, 0.9}, cfg.gamma);
    sim.set_state([&](std::size_t, std::size_t) { return s0; });
    sim.run(20);
    for (const auto& b : sim.state()) {
      mesh::for_interior(b.grid(), [&](std::ptrdiff_t i, std::ptrdiff_t j) {
        const EulerState& s = b.grid()(i, j);
        EXPECT_NEAR(s.rho, s0.rho, 1e-12);
        EXPECT_NEAR(s.mx, s0.mx, 1e-12);
        EXPECT_NEAR(s.my, s0.my, 1e-12);
        EXPECT_NEAR(s.E, s0.E, 1e-12);
      });
    }
  });
}

class CfdP : public testing::TestWithParam<int> {};

TEST_P(CfdP, PeriodicBoxConservesMassMomentumEnergy) {
  const int p = GetParam();
  auto cfg = small_config();
  cfg.periodic_x = true;
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    CfdSim sim(proc, pgrid, cfg);
    // Smooth periodic initial condition.
    sim.set_state([&](std::size_t gi, std::size_t gj) {
      const double x = (static_cast<double>(gi) + 0.5) * sim.dx();
      const double y = (static_cast<double>(gj) + 0.5) * sim.dy();
      const double rho =
          1.0 + 0.2 * std::sin(2.0 * std::numbers::pi * x / cfg.lx) *
                    std::cos(2.0 * std::numbers::pi * y / cfg.ly);
      return app::to_conserved({rho, 0.1, -0.05, 1.0}, cfg.gamma);
    });
    const double m0 = sim.total_mass();
    const double e0 = sim.total_energy();
    const double px0 = sim.total_momentum_x();
    sim.run(25);
    // Finite-volume flux differencing telescopes exactly on a periodic
    // domain; only rounding remains.
    EXPECT_NEAR(sim.total_mass(), m0, 1e-11 * std::abs(m0));
    EXPECT_NEAR(sim.total_energy(), e0, 1e-11 * std::abs(e0));
    EXPECT_NEAR(sim.total_momentum_x(), px0, 1e-9 * std::max(1.0, std::abs(px0)));
  });
}

TEST_P(CfdP, ShockScenarioStaysPhysical) {
  const int p = GetParam();
  auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    CfdSim sim(proc, pgrid, cfg);
    sim.init_shock_interface();
    sim.run(40);
    EXPECT_GT(sim.min_density(), 0.0);
    EXPECT_GT(sim.min_pressure(), 0.0);
    EXPECT_TRUE(std::isfinite(sim.max_wave_speed()));
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CfdP, testing::Values(1, 2, 4, 6),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(CfdApp, ProcessCountInvariantBitwise) {
  // dt comes from an allreduced max (exact) and every cell update uses
  // identical arithmetic, so P=1 and P=4 runs agree bitwise.
  auto cfg = small_config();
  const auto rho1 = app::run_shock_interface(cfg, 30, 1);
  const auto rho4 = app::run_shock_interface(cfg, 30, 4);
  ASSERT_EQ(rho1.rows(), rho4.rows());
  for (std::size_t i = 0; i < rho1.rows(); ++i) {
    for (std::size_t j = 0; j < rho1.cols(); ++j) {
      EXPECT_EQ(rho1(i, j), rho4(i, j)) << "cell (" << i << "," << j << ")";
    }
  }
}

TEST(CfdApp, ShockAdvancesDownstream) {
  // After some steps the mean density right of the initial shock position
  // must rise (the shock compresses gas as it advances into the domain).
  auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(2);
  mpl::spmd_run(2, [&](mpl::Process& proc) {
    CfdSim sim(proc, pgrid, cfg);
    sim.init_shock_interface();
    const auto before = sim.gather_density(0);
    sim.run(60);
    const auto after = sim.gather_density(0);
    if (proc.rank() != 0) return;
    const auto probe = static_cast<std::size_t>(
        (cfg.x_shock + 0.15) / cfg.lx * static_cast<double>(cfg.nx));
    double mean_before = 0.0, mean_after = 0.0;
    for (std::size_t j = 0; j < cfg.ny; ++j) {
      mean_before += before(probe, j);
      mean_after += after(probe, j);
    }
    EXPECT_GT(mean_after, mean_before * 1.05)
        << "shock did not reach probe column";
  });
}

TEST(CfdApp, VorticityGeneratedAtInterface) {
  // Baroclinic/shear vorticity appears once the shock has struck the
  // perturbed interface (the roll-up visible in the paper's Fig 20).
  auto cfg = small_config();
  cfg.nx = 64;
  cfg.ny = 32;
  const auto pgrid = mpl::CartGrid2D::near_square(2);
  mpl::spmd_run(2, [&](mpl::Process& proc) {
    CfdSim sim(proc, pgrid, cfg);
    sim.init_shock_interface();
    sim.run(150);
    const auto omega = sim.gather_vorticity(0);
    if (proc.rank() != 0) return;
    double max_abs = 0.0;
    for (double w : omega.flat()) max_abs = std::max(max_abs, std::abs(w));
    EXPECT_GT(max_abs, 0.05);
  });
}

TEST(CfdApp, ConstructsFromTemporaryProcessGrid) {
  // The sim holds its decomposition by value: a process grid that dies at
  // the end of the constructor's full-expression must not be read later by
  // step or the gathers.
  auto cfg = small_config();
  constexpr int kSteps = 6;
  const auto reference = app::run_shock_interface(cfg, kSteps, 1);
  mpl::spmd_run(4, [&](mpl::Process& proc) {
    CfdSim sim(proc, mpl::CartGrid2D::near_square(4), cfg);
    sim.init_shock_interface();
    sim.run(kSteps);
    const auto rho = sim.gather_density(0);
    const auto omega = sim.gather_vorticity(0);
    if (proc.rank() != 0) return;
    EXPECT_EQ(rho, reference);
    EXPECT_EQ(omega.rows(), cfg.nx);
  });
}

TEST(CfdApp, RejectsLayoutOfAnotherDomain) {
  // The scenario is y-periodic; a layout that is not, or that covers other
  // extents, describes a different domain.
  const auto cfg = small_config();
  mpl::spmd_run(1, [&](mpl::Process& proc) {
    const mpl::CartGrid2D pgrid(1, 1);
    auto layout = mesh::block_layout(pgrid, cfg.nx, cfg.ny);
    EXPECT_THROW((void)CfdSim(proc, layout, {0}, cfg), std::invalid_argument);
    layout = mesh::block_layout(pgrid, cfg.nx + 1, cfg.ny,
                                mesh::Periodicity{false, true});
    EXPECT_THROW((void)CfdSim(proc, layout, {0}, cfg), std::invalid_argument);
  });
}

// ----------------------------------------------------------- block driver --

CfdConfig block_test_config() {
  CfdConfig cfg;
  cfg.nx = 48;
  cfg.ny = 16;
  return cfg;
}

TEST(CfdBlocks, OneBlockPerRankMatchesOneRankBitwise) {
  const auto cfg = block_test_config();
  constexpr int kSteps = 20;
  const auto reference = app::run_shock_interface(cfg, kSteps, 1);
  for (const int p : {2, 4, 8}) {
    const auto blk = app::run_shock_interface(cfg, kSteps, p);
    ASSERT_EQ(reference.rows(), blk.rows());
    for (std::size_t i = 0; i < reference.rows(); ++i) {
      for (std::size_t j = 0; j < reference.cols(); ++j) {
        ASSERT_EQ(reference(i, j), blk(i, j))
            << "p=" << p << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CfdBlocks, OneBlockPerRankMessageCountsPinned) {
  // 5 steps of one boundary round and one allreduce each. On npy=1 (p=2:
  // y self-wraps locally) the round sends exactly the messages of the
  // one-grid-per-rank ExchangePlan2D driver this path replaced (20). The
  // scenario domain is always y-periodic, so with npy=2 (p=4) both y
  // directions reach the same peer and the batched round coalesces them:
  // 80 messages where that driver sent 100. `bytes` carry the 8-byte status
  // word per strip.
  const auto cfg = block_test_config();
  constexpr int kSteps = 5;
  struct Pin {
    int np;
    std::uint64_t messages, bytes, allreduce;
  };
  for (const Pin pin : {Pin{2, 20, 5280, 10}, Pin{4, 80, 36640, 20}}) {
    const auto pgrid = mpl::CartGrid2D::near_square(pin.np);
    mpl::TraceSnapshot trace;
    mpl::spmd_collect<int>(
        pin.np,
        [&](mpl::Process& proc) {
          CfdSim sim(proc, pgrid, cfg);
          sim.init_shock_interface();
          sim.run(kSteps);
          return 0;
        },
        &trace);
    EXPECT_EQ(trace.messages, pin.messages) << "np=" << pin.np;
    EXPECT_EQ(trace.bytes, pin.bytes) << "np=" << pin.np;
    EXPECT_EQ(trace.op(mpl::Op::kAllreduce), pin.allreduce) << "np=" << pin.np;
    EXPECT_EQ(trace.op(mpl::Op::kGather), 0u) << "np=" << pin.np;
  }
}

TEST(CfdBlocks, OversubscribedDistributionsMatchReferenceBitwise) {
  const auto cfg = block_test_config();
  constexpr int kSteps = 20;
  const auto reference = app::run_shock_interface(cfg, kSteps, 1);
  for (const int np : {1, 2, 4, 8}) {
    mesh::BlockConfig over;  // 4x2 = 8 blocks, oversubscribed for np < 8
    over.nbx = 4;
    over.nby = 2;
    mesh::BlockConfig rr = over;
    rr.owner = mesh::distribute_blocks_round_robin(8, np);
    mesh::BlockConfig nondiv;  // 9 blocks never divide evenly
    nondiv.nbx = 3;
    nondiv.nby = 3;
    nondiv.owner = mesh::distribute_blocks_round_robin(9, np);
    for (const auto& config : {over, rr, nondiv}) {
      const auto blk = app::run_shock_interface(cfg, kSteps, np, config);
      for (std::size_t i = 0; i < reference.rows(); ++i) {
        for (std::size_t j = 0; j < reference.cols(); ++j) {
          ASSERT_EQ(reference(i, j), blk(i, j))
              << "np=" << np << " nbx=" << config.nbx << " round_robin="
              << !config.owner.empty() << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(CfdBlocks, SmallBlocksMatchOracleBitwise) {
  // 4x3 blocks of a 9x5 grid are 1, 2 and 3 cells wide: their cores are
  // empty and their rim strips one cell wide.
  CfdConfig cfg;
  cfg.nx = 9;
  cfg.ny = 5;
  constexpr int kSteps = 12;
  for (const bool periodic_x : {false, true}) {
    cfg.periodic_x = periodic_x;
    const auto oracle = oracle::euler_shock_interface(cfg, kSteps);
    for (const int np : {1, 2, 4}) {
      mesh::BlockConfig config;
      config.nbx = 4;
      config.nby = 3;
      config.owner = mesh::distribute_blocks_round_robin(12, np);
      const auto blk = app::run_shock_interface(cfg, kSteps, np, config);
      ASSERT_EQ(blk.rows(), oracle.rows());
      ASSERT_EQ(blk.cols(), oracle.cols());
      for (std::size_t i = 0; i < oracle.rows(); ++i) {
        for (std::size_t j = 0; j < oracle.cols(); ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(blk(i, j)),
                    std::bit_cast<std::uint64_t>(oracle(i, j)))
              << "periodic_x=" << periodic_x << " np=" << np << " at (" << i
              << "," << j << ")";
        }
      }
    }
  }
}

TEST(CfdBlocks, RandomStateMatchesOracleBitwise) {
  // A seeded random state with positive pressure and both velocity
  // components nonzero and of either sign, so every face sees flow both
  // ways; all four conserved components must match the oracle.
  CfdConfig cfg;
  cfg.nx = 26;
  cfg.ny = 15;
  constexpr int kSteps = 10;
  Array2D<EulerState> init(cfg.nx, cfg.ny);
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> pos(0.5, 2.0), speed(0.05, 0.6);
  std::bernoulli_distribution flip(0.5);
  for (auto& s : init.flat()) {
    const double rho = pos(rng);
    const double u = flip(rng) ? -speed(rng) : speed(rng);
    const double v = flip(rng) ? -speed(rng) : speed(rng);
    s = app::to_conserved({rho, u, v, pos(rng)}, cfg.gamma);
  }
  const auto init_fn = [&](std::size_t i, std::size_t j) { return init(i, j); };
  const auto bits = [](const EulerState& s) {
    return std::array<std::uint64_t, 4>{
        std::bit_cast<std::uint64_t>(s.rho), std::bit_cast<std::uint64_t>(s.mx),
        std::bit_cast<std::uint64_t>(s.my), std::bit_cast<std::uint64_t>(s.E)};
  };
  for (const bool periodic_x : {false, true}) {
    cfg.periodic_x = periodic_x;
    const auto oracle = oracle::euler_steps(cfg, init_fn, kSteps);
    for (const int np : {1, 2, 4}) {
      Array2D<EulerState> got;
      double min_p = 0.0;
      mpl::spmd_run(np, [&](mpl::Process& proc) {
        CfdSim sim(proc, mpl::CartGrid2D::near_square(np), cfg);
        sim.set_state(init_fn);
        sim.run(kSteps);
        const double p = sim.min_pressure();
        auto state = mesh::gather_blocks(proc, sim.state(), 0);
        if (proc.rank() != 0) return;
        got = std::move(state);
        min_p = p;
      });
      EXPECT_GT(min_p, 0.0) << "periodic_x=" << periodic_x << " np=" << np;
      ASSERT_EQ(got.rows(), oracle.rows());
      ASSERT_EQ(got.cols(), oracle.cols());
      for (std::size_t i = 0; i < oracle.rows(); ++i) {
        for (std::size_t j = 0; j < oracle.cols(); ++j) {
          ASSERT_EQ(bits(got(i, j)), bits(oracle(i, j)))
              << "periodic_x=" << periodic_x << " np=" << np << " at (" << i
              << "," << j << ")";
        }
      }
    }
  }
}

TEST(CfdBlocks, MaxWaveSpeedMatchesOracleBitwise) {
  // Rows of 1 to 9 cells give the row kernel 0-4 two-cell pairs and 0 or 1
  // tail cell. The blocks split x only, so every block row is a whole
  // domain row; a seeded shuffle of the round-robin map picks the owners.
  CfdConfig cfg;
  cfg.nx = 8;
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> pos(0.5, 2.0), speed(0.05, 0.6);
  std::bernoulli_distribution flip(0.5);
  for (std::size_t ny = 1; ny <= 9; ++ny) {
    cfg.ny = ny;
    oracle::Framed2<EulerState> u(cfg.nx, ny);
    for (std::ptrdiff_t i = 0; i < u.nx(); ++i) {
      for (std::ptrdiff_t j = 0; j < u.ny(); ++j) {
        const double rho = pos(rng);
        const double vx = flip(rng) ? -speed(rng) : speed(rng);
        const double vy = flip(rng) ? -speed(rng) : speed(rng);
        u(i, j) = app::to_conserved({rho, vx, vy, pos(rng)}, cfg.gamma);
      }
    }
    const double want = oracle::euler_max_wave_speed(u, cfg.gamma);
    for (const int np : {1, 2, 4}) {
      mesh::BlockConfig config;
      config.nbx = 4;
      config.nby = 1;
      config.owner = mesh::distribute_blocks_round_robin(4, np);
      std::shuffle(config.owner.begin(), config.owner.end(), rng);
      const auto layout = mesh::block_layout(config, np, cfg.nx, cfg.ny,
                                             mesh::Periodicity{false, true});
      double got = 0.0;
      mpl::spmd_run(np, [&](mpl::Process& proc) {
        CfdSim sim(proc, layout, config.owner, cfg);
        sim.set_state([&](std::size_t i, std::size_t j) {
          return u(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j));
        });
        const double smax = sim.max_wave_speed();
        if (proc.rank() == 0) got = smax;
      });
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "ny=" << ny << " np=" << np << ": " << got << " vs " << want;
    }
  }
}

}  // namespace
