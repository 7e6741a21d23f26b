// Tests for the airshed smog model (paper section 7.4): chemistry
// invariants (nitrogen conservation, photostationary tendency), transport
// conservation on a periodic domain, positivity, diurnal photolysis, ozone
// formation downwind of emissions, and process-count invariance.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/airshed/airshed.hpp"

namespace {

using namespace ppa;
using app::AirshedConfig;
using app::AirshedSim;
using app::Chem;

AirshedConfig small_config() {
  AirshedConfig cfg;
  cfg.nx = 32;
  cfg.ny = 24;
  return cfg;
}

/// Gather all four species on rank 0.
std::array<Array2D<double>, 4> gather_all(AirshedSim& sim) {
  return {sim.gather_species(0), sim.gather_species(1), sim.gather_species(2),
          sim.gather_species(3)};
}

/// All four species after `steps` steps on one rank.
std::array<Array2D<double>, 4> one_rank_run(const AirshedConfig& cfg,
                                            int steps) {
  std::array<Array2D<double>, 4> out;
  const mpl::CartGrid2D pgrid(1, 1);
  mpl::spmd_run(1, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.run(steps);
    out = gather_all(sim);
  });
  return out;
}

TEST(AirshedApp, PhotolysisIsDiurnal) {
  const auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(1);
  mpl::spmd_run(1, [&](mpl::Process& p) {
    AirshedSim sim(p, pgrid, cfg);
    EXPECT_EQ(sim.photolysis_rate(3.0), 0.0);    // night
    EXPECT_EQ(sim.photolysis_rate(22.0), 0.0);   // night
    EXPECT_NEAR(sim.photolysis_rate(12.0), cfg.rate_j_max, 1e-12);  // noon
    EXPECT_GT(sim.photolysis_rate(9.0), 0.0);
    EXPECT_LT(sim.photolysis_rate(9.0), cfg.rate_j_max);
  });
}

class AirshedP : public testing::TestWithParam<int> {};

TEST_P(AirshedP, ChemistryConservesTotalNitrogen) {
  const int p = GetParam();
  const auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.disable_emissions();
    const double n0 = sim.total_nitrogen();
    for (int s = 0; s < 50; ++s) sim.chemistry_step();
    EXPECT_NEAR(sim.total_nitrogen(), n0, 1e-12 * std::max(1.0, n0));
  });
}

TEST_P(AirshedP, PeriodicTransportConservesMass) {
  const int p = GetParam();
  auto cfg = small_config();
  cfg.periodic = true;
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.disable_emissions();
    const double no0 = sim.total(0);
    const double no20 = sim.total(1);
    const double o30 = sim.total(2);
    for (int s = 0; s < 40; ++s) sim.transport_step();
    EXPECT_NEAR(sim.total(0), no0, 1e-10 * std::max(1.0, no0));
    EXPECT_NEAR(sim.total(1), no20, 1e-10 * std::max(1.0, no20));
    EXPECT_NEAR(sim.total(2), o30, 1e-10 * std::max(1.0, o30));
  });
}

TEST_P(AirshedP, ConcentrationsStayNonNegative) {
  const int p = GetParam();
  const auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.run(80);
    EXPECT_GE(sim.min_concentration(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, AirshedP, testing::Values(1, 2, 4, 6),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(AirshedApp, ProcessCountInvariantBitwise) {
  // No dt reductions (fixed dt): decompositions must agree bitwise.
  const auto cfg = small_config();
  const auto run_with = [&](int p) {
    const auto pgrid = mpl::CartGrid2D::near_square(p);
    Array2D<double> o3;
    mpl::spmd_run(p, [&](mpl::Process& proc) {
      AirshedSim sim(proc, pgrid, cfg);
      sim.run(50);
      auto field = sim.gather_species(2, 0);
      if (proc.rank() == 0) o3 = std::move(field);
    });
    return o3;
  };
  const auto a = run_with(1);
  const auto b = run_with(4);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(AirshedApp, ChemistryApproachesPhotostationaryState) {
  // Under constant daylight, NO/NO2/O3 tend to the photostationary relation
  // j*[NO2] = k*[NO]*[O3].
  auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(1);
  mpl::spmd_run(1, [&](mpl::Process& p) {
    AirshedSim sim(p, pgrid, cfg);
    sim.disable_emissions();
    sim.set_field([](std::size_t, std::size_t) {
      return Chem{0.08, 0.02, 0.01};
    });
    for (int s = 0; s < 4000; ++s) sim.chemistry_step();
    const double j = sim.photolysis_rate(sim.hour());
    // Sample the steady state via the gathered fields.
    const auto no = sim.gather_species(0, 0);
    const auto no2 = sim.gather_species(1, 0);
    const auto o3 = sim.gather_species(2, 0);
    const double lhs = j * no2(5, 5);
    const double rhs = cfg.rate_k * no(5, 5) * o3(5, 5);
    EXPECT_NEAR(lhs, rhs, 0.05 * std::max(lhs, rhs));
  });
}

TEST(AirshedApp, OzoneFormsDownwindOfCity) {
  // The classic smog signature: after daytime simulation, peak O3 exceeds
  // the background and the O3 plume center of mass sits downwind (+x) of
  // the NO emission peak.
  auto cfg = small_config();
  cfg.nx = 48;
  cfg.ny = 32;
  const auto pgrid = mpl::CartGrid2D::near_square(2);
  mpl::spmd_run(2, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.run(400);  // 4 simulated hours from 8am
    EXPECT_GT(sim.max_o3(), cfg.background_o3 * 1.05);
    const auto no = sim.gather_species(0, 0);
    const auto o3 = sim.gather_species(2, 0);
    if (proc.rank() != 0) return;
    const auto center_x = [&](const Array2D<double>& f, double baseline) {
      double m = 0.0, mx = 0.0;
      for (std::size_t i = 0; i < f.rows(); ++i) {
        for (std::size_t j = 0; j < f.cols(); ++j) {
          const double w = std::max(0.0, f(i, j) - baseline);
          m += w;
          mx += w * static_cast<double>(i);
        }
      }
      return mx / std::max(m, 1e-30);
    };
    EXPECT_GT(center_x(o3, cfg.background_o3), center_x(no, 0.0));
  });
}

TEST(AirshedApp, ConstructsFromTemporaryProcessGrid) {
  // The sim holds its decomposition by value: a process grid that dies at
  // the end of the constructor's full-expression must not be read later by
  // step or the gathers.
  const auto cfg = small_config();
  constexpr int kSteps = 10;
  const auto reference = one_rank_run(cfg, kSteps);
  mpl::spmd_run(4, [&](mpl::Process& proc) {
    AirshedSim sim(proc, mpl::CartGrid2D::near_square(4), cfg);
    sim.run(kSteps);
    auto out = gather_all(sim);
    if (proc.rank() != 0) return;
    for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(out[s], reference[s]) << s;
  });
}

TEST(AirshedApp, RejectsLayoutOfAnotherDomain) {
  // An open domain's layout is not periodic and covers the config's extents.
  const auto cfg = small_config();
  mpl::spmd_run(1, [&](mpl::Process& proc) {
    const mpl::CartGrid2D pgrid(1, 1);
    auto layout = mesh::block_layout(pgrid, cfg.nx, cfg.ny,
                                     mesh::Periodicity{true, true});
    EXPECT_THROW((void)AirshedSim(proc, layout, {0}, cfg), std::invalid_argument);
    layout = mesh::block_layout(pgrid, cfg.nx, cfg.ny + 2);
    EXPECT_THROW((void)AirshedSim(proc, layout, {0}, cfg), std::invalid_argument);
  });
}

// ----------------------------------------------------------- block driver --

AirshedConfig block_test_config() {
  AirshedConfig cfg;
  cfg.nx = 48;
  cfg.ny = 32;
  return cfg;
}

TEST(AirshedBlocks, OneBlockPerRankMatchesOneRankBitwise) {
  const auto cfg = block_test_config();
  constexpr int kSteps = 20;
  const auto reference = one_rank_run(cfg, kSteps);
  for (const int p : {2, 4, 8}) {
    const auto pgrid = mpl::CartGrid2D::near_square(p);
    std::array<Array2D<double>, 4> block_out;
    mpl::spmd_run(p, [&](mpl::Process& proc) {
      AirshedSim sim(proc, pgrid, cfg);
      sim.run(kSteps);
      auto out = gather_all(sim);
      if (proc.rank() == 0) block_out = std::move(out);
    });
    for (int s = 0; s < 4; ++s) {
      const auto& a = reference[static_cast<std::size_t>(s)];
      const auto& b = block_out[static_cast<std::size_t>(s)];
      ASSERT_EQ(a.rows(), b.rows());
      for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
          ASSERT_EQ(a(i, j), b(i, j)) << "p=" << p << " species " << s
                                      << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(AirshedBlocks, OneBlockPerRankMessageCountsPinned) {
  // 20 transport rounds then one species gather. `messages` and the
  // collective counts are those of the one-grid-per-rank ExchangePlan2D
  // driver this path replaced (open domain: no peer is reached twice);
  // `bytes` carry the 8-byte status word per strip and the block gather's
  // 6-word headers.
  const auto cfg = block_test_config();
  struct Pin {
    int np;
    std::uint64_t messages, bytes, gather;
  };
  for (const Pin pin : {Pin{2, 42, 47472, 4}, Pin{4, 166, 113040, 8}}) {
    const auto pgrid = mpl::CartGrid2D::near_square(pin.np);
    mpl::TraceSnapshot trace;
    mpl::spmd_collect<int>(
        pin.np,
        [&](mpl::Process& proc) {
          AirshedSim sim(proc, pgrid, cfg);
          sim.run(20);
          (void)sim.gather_species(2);
          return 0;
        },
        &trace);
    EXPECT_EQ(trace.messages, pin.messages) << "np=" << pin.np;
    EXPECT_EQ(trace.bytes, pin.bytes) << "np=" << pin.np;
    EXPECT_EQ(trace.op(mpl::Op::kAllreduce), 0u) << "np=" << pin.np;
    EXPECT_EQ(trace.op(mpl::Op::kGather), pin.gather) << "np=" << pin.np;
  }
}

TEST(AirshedBlocks, OversubscribedDistributionsMatchReferenceBitwise) {
  const auto cfg = block_test_config();
  constexpr int kSteps = 15;
  const auto reference = one_rank_run(cfg, kSteps);
  for (const int np : {1, 2, 4, 8}) {
    // 4x2 round-robin (oversubscribed for np < 8) and 3x3 round-robin
    // (never divides evenly).
    for (const auto& [nbx, nby] : {std::pair{4, 2}, std::pair{3, 3}}) {
      mesh::BlockConfig config;
      config.nbx = nbx;
      config.nby = nby;
      config.owner = mesh::distribute_blocks_round_robin(nbx * nby, np);
      const auto layout = mesh::block_layout(config, np, cfg.nx, cfg.ny);
      std::array<Array2D<double>, 4> block_out;
      mpl::spmd_run(np, [&](mpl::Process& proc) {
        AirshedSim sim(proc, layout, config.owner, cfg);
        sim.run(kSteps);
        auto out = gather_all(sim);
        if (proc.rank() == 0) block_out = std::move(out);
      });
      for (int s = 0; s < 4; ++s) {
        const auto& a = reference[static_cast<std::size_t>(s)];
        const auto& b = block_out[static_cast<std::size_t>(s)];
        for (std::size_t i = 0; i < a.rows(); ++i) {
          for (std::size_t j = 0; j < a.cols(); ++j) {
            ASSERT_EQ(a(i, j), b(i, j))
                << "np=" << np << " nbx=" << nbx << " species " << s
                << " at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

}  // namespace
