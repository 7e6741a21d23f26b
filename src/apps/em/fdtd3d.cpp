#include "apps/em/fdtd3d.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ppa::app {

namespace {

/// Apply f(i, j, k) over the local interior of a grid.
template <typename T, typename F>
void for_interior3(const mesh::Grid3D<T>& g, F&& f) {
  mesh::for_region(mesh::interior_region(g), f);
}

/// Plan options shared by all field exchanges: non-periodic (PEC walls),
/// one tag block per field so a whole phase is in flight concurrently, and
/// faces only — the curl stencils read single-axis +-1 neighbors, never
/// edge or corner ghosts, which cuts each exchange from up to 26 messages
/// to at most 6.
mesh::ExchangePlan3D::Options field_plan(int tag_block) {
  mesh::ExchangePlan3D::Options opt;
  opt.corners = false;
  opt.tag_block = tag_block;
  return opt;
}

}  // namespace

FdtdSim::FdtdSim(mpl::Process& p, const mpl::CartGrid3D& pgrid, const EmConfig& cfg)
    : p_(p),
      cfg_(cfg),
      dt_(cfg.courant / std::sqrt(3.0)),
      ex_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      ey_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      ez_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      hx_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      hy_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      hz_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      inv_eps_(cfg.n, cfg.n, cfg.n, pgrid, p.rank(), 1),
      plan_ex_(pgrid, p.rank(), ex_, field_plan(0)),
      plan_ey_(pgrid, p.rank(), ey_, field_plan(1)),
      plan_ez_(pgrid, p.rank(), ez_, field_plan(2)),
      plan_hx_(pgrid, p.rank(), hx_, field_plan(3)),
      plan_hy_(pgrid, p.rank(), hy_, field_plan(4)),
      plan_hz_(pgrid, p.rank(), hz_, field_plan(5)) {
  // Material map: dielectric sphere centered in the domain.
  const double c0 = static_cast<double>(cfg.n) / 2.0;
  inv_eps_.init_from_global([&](std::size_t gi, std::size_t gj, std::size_t gk) {
    const double dxc = static_cast<double>(gi) - c0;
    const double dyc = static_cast<double>(gj) - c0;
    const double dzc = static_cast<double>(gk) - c0;
    const double r = std::sqrt(dxc * dxc + dyc * dyc + dzc * dzc);
    return r <= cfg.sphere_radius ? 1.0 / cfg.eps_sphere : 1.0;
  });
}

void FdtdSim::begin_exchange_e() {
  plan_ex_.begin_exchange(p_, ex_);
  plan_ey_.begin_exchange(p_, ey_);
  plan_ez_.begin_exchange(p_, ez_);
}

void FdtdSim::end_exchange_e() {
  plan_ex_.end_exchange(p_, ex_);
  plan_ey_.end_exchange(p_, ey_);
  plan_ez_.end_exchange(p_, ez_);
}

void FdtdSim::begin_exchange_h() {
  plan_hx_.begin_exchange(p_, hx_);
  plan_hy_.begin_exchange(p_, hy_);
  plan_hz_.begin_exchange(p_, hz_);
}

void FdtdSim::end_exchange_h() {
  plan_hx_.end_exchange(p_, hx_);
  plan_hy_.end_exchange(p_, hy_);
  plan_hz_.end_exchange(p_, hz_);
}

void FdtdSim::update_h_pencil(std::ptrdiff_t i, std::ptrdiff_t j,
                              std::ptrdiff_t k0, std::ptrdiff_t k1) {
  // H -= dt * curl E; reads E at +1 neighbors. Ghosts at the global
  // boundary are zero (never written), consistent with PEC walls. Base
  // pointers are hoisted once per (i, j), then three unit-stride k loops
  // run over raw pointers. Each H component's update reads only E, so
  // splitting the per-point triple into per-component loops cannot change
  // any computed value.
  double* PPA_RESTRICT hx = hx_.pencil(i, j);
  double* PPA_RESTRICT hy = hy_.pencil(i, j);
  double* PPA_RESTRICT hz = hz_.pencil(i, j);
  const double* PPA_RESTRICT ex0 = ex_.pencil(i, j);
  const double* PPA_RESTRICT ex_jp = ex_.pencil(i, j + 1);
  const double* PPA_RESTRICT ey0 = ey_.pencil(i, j);
  const double* PPA_RESTRICT ey_ip = ey_.pencil(i + 1, j);
  const double* PPA_RESTRICT ez0 = ez_.pencil(i, j);
  const double* PPA_RESTRICT ez_ip = ez_.pencil(i + 1, j);
  const double* PPA_RESTRICT ez_jp = ez_.pencil(i, j + 1);
  const double dt = dt_;
  for (std::ptrdiff_t k = k0; k < k1; ++k) {
    hx[k] += dt * ((ey0[k + 1] - ey0[k]) - (ez_jp[k] - ez0[k]));
  }
  for (std::ptrdiff_t k = k0; k < k1; ++k) {
    hy[k] += dt * ((ez_ip[k] - ez0[k]) - (ex0[k + 1] - ex0[k]));
  }
  for (std::ptrdiff_t k = k0; k < k1; ++k) {
    hz[k] += dt * ((ex_jp[k] - ex0[k]) - (ey_ip[k] - ey0[k]));
  }
}

void FdtdSim::update_e_pencil(std::ptrdiff_t i, std::ptrdiff_t j,
                              std::ptrdiff_t k0, std::ptrdiff_t k1) {
  // E += dt/eps * curl H; reads H at -1 neighbors (and the material map
  // only), so the per-component split is exact here too.
  double* PPA_RESTRICT ex = ex_.pencil(i, j);
  double* PPA_RESTRICT ey = ey_.pencil(i, j);
  double* PPA_RESTRICT ez = ez_.pencil(i, j);
  const double* PPA_RESTRICT hx0 = hx_.pencil(i, j);
  const double* PPA_RESTRICT hx_jm = hx_.pencil(i, j - 1);
  const double* PPA_RESTRICT hy0 = hy_.pencil(i, j);
  const double* PPA_RESTRICT hy_im = hy_.pencil(i - 1, j);
  const double* PPA_RESTRICT hz0 = hz_.pencil(i, j);
  const double* PPA_RESTRICT hz_im = hz_.pencil(i - 1, j);
  const double* PPA_RESTRICT hz_jm = hz_.pencil(i, j - 1);
  const double* PPA_RESTRICT ie = inv_eps_.pencil(i, j);
  const double dt = dt_;
  for (std::ptrdiff_t k = k0; k < k1; ++k) {
    ex[k] += dt * ie[k] * ((hz0[k] - hz_jm[k]) - (hy0[k] - hy0[k - 1]));
  }
  for (std::ptrdiff_t k = k0; k < k1; ++k) {
    ey[k] += dt * ie[k] * ((hx0[k] - hx0[k - 1]) - (hz0[k] - hz_im[k]));
  }
  for (std::ptrdiff_t k = k0; k < k1; ++k) {
    ez[k] += dt * ie[k] * ((hy0[k] - hy_im[k]) - (hx0[k] - hx_jm[k]));
  }
}

void FdtdSim::update_h(const mesh::Region3& r) {
  mesh::kern::sweep_pencils(r, [&](std::ptrdiff_t i, std::ptrdiff_t j,
                                   std::ptrdiff_t k0, std::ptrdiff_t k1) {
    update_h_pencil(i, j, k0, k1);
  });
}

void FdtdSim::update_e(const mesh::Region3& r) {
  mesh::kern::sweep_pencils(r, [&](std::ptrdiff_t i, std::ptrdiff_t j,
                                   std::ptrdiff_t k0, std::ptrdiff_t k1) {
    update_e_pencil(i, j, k0, k1);
  });
}

void FdtdSim::update_h_rim(const mesh::Region3& all, const mesh::Region3& core) {
  mesh::kern::sweep_rim_pencils(
      all, core, [&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k0,
                     std::ptrdiff_t k1) { update_h_pencil(i, j, k0, k1); });
}

void FdtdSim::update_e_rim(const mesh::Region3& all, const mesh::Region3& core) {
  mesh::kern::sweep_rim_pencils(
      all, core, [&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k0,
                     std::ptrdiff_t k1) { update_e_pencil(i, j, k0, k1); });
}

void FdtdSim::apply_pec() {
  // Tangential E = 0 on the global boundary faces.
  const auto n = cfg_.n;
  const auto zero_face = [n](mesh::Grid3D<double>& g, int axis) {
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    const auto nz = static_cast<std::ptrdiff_t>(g.nz());
    if (axis == 0) {
      if (g.range(0).lo == 0) {
        for (std::ptrdiff_t j = 0; j < ny; ++j)
          for (std::ptrdiff_t k = 0; k < nz; ++k) g(0, j, k) = 0.0;
      }
      if (g.range(0).hi == n) {
        for (std::ptrdiff_t j = 0; j < ny; ++j)
          for (std::ptrdiff_t k = 0; k < nz; ++k) g(nx - 1, j, k) = 0.0;
      }
    } else if (axis == 1) {
      if (g.range(1).lo == 0) {
        for (std::ptrdiff_t i = 0; i < nx; ++i)
          for (std::ptrdiff_t k = 0; k < nz; ++k) g(i, 0, k) = 0.0;
      }
      if (g.range(1).hi == n) {
        for (std::ptrdiff_t i = 0; i < nx; ++i)
          for (std::ptrdiff_t k = 0; k < nz; ++k) g(i, ny - 1, k) = 0.0;
      }
    } else {
      if (g.range(2).lo == 0) {
        for (std::ptrdiff_t i = 0; i < nx; ++i)
          for (std::ptrdiff_t j = 0; j < ny; ++j) g(i, j, 0) = 0.0;
      }
      if (g.range(2).hi == n) {
        for (std::ptrdiff_t i = 0; i < nx; ++i)
          for (std::ptrdiff_t j = 0; j < ny; ++j) g(i, j, nz - 1) = 0.0;
      }
    }
  };
  // Ey, Ez tangential at x faces; Ex, Ez at y faces; Ex, Ey at z faces.
  zero_face(ey_, 0);
  zero_face(ez_, 0);
  zero_face(ex_, 1);
  zero_face(ez_, 1);
  zero_face(ex_, 2);
  zero_face(ey_, 2);
}

void FdtdSim::step() {
  // Split-phase leapfrog: each half-step updates the ghost-independent core
  // while the other field's halos are in flight, then the rim once they
  // have arrived. Per-point arithmetic is identical to the blocking
  // schedule; only the sweep order differs.
  const mesh::Region3 all = mesh::interior_region(ex_);
  const mesh::Region3 core = mesh::core_region(ex_, 1, all);

  begin_exchange_e();
  update_h(core);
  end_exchange_e();
  update_h_rim(all, core);

  begin_exchange_h();
  update_e(core);
  end_exchange_h();
  update_e_rim(all, core);

  if (source_enabled_) {
    // Soft source: additive sinusoid with a smooth turn-on ramp.
    const double t = static_cast<double>(steps_);
    const double ramp = 1.0 - std::exp(-t / (2.0 * cfg_.source_period));
    const double value =
        ramp * std::sin(2.0 * std::numbers::pi * t / cfg_.source_period);
    if (ez_.range(0).contains(cfg_.src_i) && ez_.range(1).contains(cfg_.src_j) &&
        ez_.range(2).contains(cfg_.src_k)) {
      ez_(static_cast<std::ptrdiff_t>(cfg_.src_i - ez_.range(0).lo),
          static_cast<std::ptrdiff_t>(cfg_.src_j - ez_.range(1).lo),
          static_cast<std::ptrdiff_t>(cfg_.src_k - ez_.range(2).lo)) += value;
    }
  }
  apply_pec();
  ++steps_;
}

void FdtdSim::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

void FdtdSim::seed_gaussian_ez(double amplitude, double width) {
  const double c0 = static_cast<double>(cfg_.n) / 2.0;
  ez_.init_from_global([&](std::size_t gi, std::size_t gj, std::size_t gk) {
    const double dxc = static_cast<double>(gi) - c0;
    const double dyc = static_cast<double>(gj) - c0;
    const double dzc = static_cast<double>(gk) - c0;
    const double r2 = dxc * dxc + dyc * dyc + dzc * dzc;
    return amplitude * std::exp(-r2 / (2.0 * width * width));
  });
  apply_pec();
}

double FdtdSim::field_energy() {
  double local = 0.0;
  for_interior3(ex_, [&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    const double eps = 1.0 / inv_eps_(i, j, k);
    const double e2 = ex_(i, j, k) * ex_(i, j, k) + ey_(i, j, k) * ey_(i, j, k) +
                      ez_(i, j, k) * ez_(i, j, k);
    const double h2 = hx_(i, j, k) * hx_(i, j, k) + hy_(i, j, k) * hy_(i, j, k) +
                      hz_(i, j, k) * hz_(i, j, k);
    local += 0.5 * (eps * e2 + h2);
  });
  return p_.allreduce(local, mpl::SumOp{});
}

double FdtdSim::max_abs_ez() {
  const double local = ez_.fold_interior(
      0.0, [](double acc, double v) { return std::max(acc, std::abs(v)); });
  return p_.allreduce(local, mpl::MaxOp{});
}

double FdtdSim::max_abs_div_h() {
  // On the Yee grid H components sit on face centers, so div H lives at
  // *cell centers* and is the forward difference of each component. With
  // that staggering, div(curl E) telescopes to exactly zero, so div H stays
  // at rounding level for all time. Ghosts must be fresh before evaluating;
  // points whose +1 neighbor crosses the global boundary are skipped (the
  // PEC wall truncates the staggered cell there).
  begin_exchange_h();
  end_exchange_h();
  double local = 0.0;
  const auto n = cfg_.n;
  for_interior3(hx_, [&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    const bool at_hi =
        (hx_.range(0).hi == n && i + 1 == static_cast<std::ptrdiff_t>(hx_.nx())) ||
        (hx_.range(1).hi == n && j + 1 == static_cast<std::ptrdiff_t>(hx_.ny())) ||
        (hx_.range(2).hi == n && k + 1 == static_cast<std::ptrdiff_t>(hx_.nz()));
    if (at_hi) return;
    const double div = (hx_(i + 1, j, k) - hx_(i, j, k)) +
                       (hy_(i, j + 1, k) - hy_(i, j, k)) +
                       (hz_(i, j, k + 1) - hz_(i, j, k));
    local = std::max(local, std::abs(div));
  });
  return p_.allreduce(local, mpl::MaxOp{});
}

Array2D<double> FdtdSim::gather_ez_plane(int root) {
  // File-output pattern: every rank sends its intersection with the plane
  // k = n/2 (tagged with its x/y ranges); root assembles the dense plane.
  const std::size_t kc = cfg_.n / 2;
  std::vector<double> mine;
  const std::uint64_t header[4] = {ez_.range(0).lo, ez_.range(0).hi,
                                   ez_.range(1).lo, ez_.range(1).hi};
  const bool have_plane = ez_.range(2).contains(kc);
  if (have_plane) {
    const auto kl = static_cast<std::ptrdiff_t>(kc - ez_.range(2).lo);
    for (std::size_t i = 0; i < ez_.nx(); ++i)
      for (std::size_t j = 0; j < ez_.ny(); ++j)
        mine.push_back(ez_(static_cast<std::ptrdiff_t>(i),
                           static_cast<std::ptrdiff_t>(j), kl));
  }
  auto headers = p_.gather_parts(std::span<const std::uint64_t>(header, 4), root);
  auto parts = p_.gather_parts(std::span<const double>(mine), root);
  if (p_.rank() != root) return {};

  Array2D<double> plane(cfg_.n, cfg_.n, 0.0);
  for (std::size_t r = 0; r < parts.size(); ++r) {
    const auto& part = parts[r];
    if (part.empty()) continue;
    const auto& h = headers[r];
    std::size_t m = 0;
    for (std::size_t i = h[0]; i < h[1]; ++i)
      for (std::size_t j = h[2]; j < h[3]; ++j) plane(i, j) = part[m++];
  }
  return plane;
}

Array2D<double> run_em_scattering(const EmConfig& cfg, int steps, int nprocs) {
  const auto pgrid = mpl::CartGrid3D::near_cubic(nprocs);
  Array2D<double> plane;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    FdtdSim sim(p, pgrid, cfg);
    sim.run(steps);
    auto ez = sim.gather_ez_plane(0);
    if (p.rank() == 0) plane = std::move(ez);
  });
  return plane;
}

}  // namespace ppa::app
