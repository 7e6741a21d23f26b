#include "apps/cfd/euler2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ppa::app {

namespace {

/// Pressure from the conserved components of one cell (T = double) or of
/// two, one per lane (T = v2d below).
template <typename T>
T pressure(T rho, T mx, T my, T E, double gamma) {
  const T kinetic = 0.5 * (mx * mx + my * my) / rho;
  return (gamma - 1.0) * (E - kinetic);
}

double pressure(const EulerState& s, double gamma) {
  return pressure(s.rho, s.mx, s.my, s.E, gamma);
}

double root(double x) { return std::sqrt(x); }
double magnitude(double x) { return std::abs(x); }
/// std::max(m, d), spelled so that it also folds two lanes at once.
template <typename T>
T fold_max(T m, T d) {
  return d > m ? d : m;
}

#if defined(__SSE2__)
using v2d = double __attribute__((vector_size(16)));
using v2u = unsigned long long __attribute__((vector_size(16)));

v2d root(v2d x) { return _mm_sqrt_pd(x); }
v2d magnitude(v2d x) {
  const v2u mask = {~0ULL >> 1, ~0ULL >> 1};
  return (v2d)((v2u)x & mask);
}
#endif

/// A cell's face-flux terms from its conserved components, in
/// EulerCellFlux's member order: physical flux along x, along y, then
/// |u| + c and |v| + c. T = v2d computes two cells, one per lane.
template <typename T>
std::array<T, 10> cell_terms(T rho, T mx, T my, T E, double gamma) {
  const T p = pressure(rho, mx, my, E, gamma);
  const T u = mx / rho;
  const T v = my / rho;
  const T c = root(gamma * p / rho);
  return {mx, mx * u + p, my * u, (E + p) * u,
          my, mx * v, my * v + p, (E + p) * v,
          magnitude(u) + c, magnitude(v) + c};
}

/// The row kernel: the primitives of cells s[k0, k1), stored as each
/// cell's face-flux terms into w[k] unless w is null, and `m` folded with
/// every cell's |u| + c and |v| + c. On SSE2 two cells share each divide
/// and square root; IEEE rounds every lane as it rounds a scalar, so each
/// stored term is bitwise the scalar tail's. Max is exact, so the two
/// lanes' running maxima fold to the forward-order fold's value.
double cell_fluxes(const EulerState* PPA_RESTRICT s,
                   EulerCellFlux* PPA_RESTRICT w, std::ptrdiff_t k0,
                   std::ptrdiff_t k1, double gamma, double m) {
  std::ptrdiff_t k = k0;
#if defined(__SSE2__)
  v2d m2 = {m, m};
  for (; k + 2 <= k1; k += 2) {
    // Lane 0 holds cell k, lane 1 cell k + 1.
    const v2d a = _mm_loadu_pd(&s[k].rho), b = _mm_loadu_pd(&s[k].my);
    const v2d c = _mm_loadu_pd(&s[k + 1].rho), d = _mm_loadu_pd(&s[k + 1].my);
    const auto t = cell_terms<v2d>(_mm_unpacklo_pd(a, c), _mm_unpackhi_pd(a, c),
                                   _mm_unpacklo_pd(b, d), _mm_unpackhi_pd(b, d),
                                   gamma);
    if (w != nullptr) {
      for (int h = 0; h < 2; ++h) {
        w[k + h] = {{t[0][h], t[1][h], t[2][h], t[3][h]},
                    {t[4][h], t[5][h], t[6][h], t[7][h]},
                    t[8][h],
                    t[9][h]};
      }
    }
    m2 = fold_max(fold_max(m2, t[8]), t[9]);
  }
  m = fold_max(m2[0], m2[1]);
#endif
  for (; k < k1; ++k) {
    const EulerState& q = s[k];
    const auto t = cell_terms(q.rho, q.mx, q.my, q.E, gamma);
    if (w != nullptr) {
      w[k] = {{t[0], t[1], t[2], t[3]}, {t[4], t[5], t[6], t[7]}, t[8], t[9]};
    }
    m = fold_max(fold_max(m, t[8]), t[9]);
  }
  return m;
}

EulerState axpy(const EulerState& a, const EulerState& b, double c) {
  return {a.rho + c * b.rho, a.mx + c * b.mx, a.my + c * b.my, a.E + c * b.E};
}

/// Rusanov numerical flux through the face between `l` and `r`, given each
/// side's wave speed (|normal velocity| + sound speed) and physical flux.
EulerState rusanov(const EulerState& l, const EulerState& r, double sl,
                   double sr, const EulerState& fl, const EulerState& fr) {
  const double smax = std::max(sl, sr);
  return {0.5 * (fl.rho + fr.rho) - 0.5 * smax * (r.rho - l.rho),
          0.5 * (fl.mx + fr.mx) - 0.5 * smax * (r.mx - l.mx),
          0.5 * (fl.my + fr.my) - 0.5 * smax * (r.my - l.my),
          0.5 * (fl.E + fr.E) - 0.5 * smax * (r.E - l.E)};
}

/// Local max wave speed over one grid's interior, `floor` included. Kept
/// out of line so the carried maximum stays in a register (GCC 12 held an
/// inlined running max in a stack slot; see poisson.cpp).
[[gnu::noinline]] double local_max_wave_speed(
    const mesh::Grid2D<EulerState>& u, double gamma, double floor) {
  const auto nx = static_cast<std::ptrdiff_t>(u.nx());
  const auto ny = static_cast<std::ptrdiff_t>(u.ny());
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    floor = cell_fluxes(u.row(i), nullptr, 0, ny, gamma, floor);
  }
  return floor;
}

/// The scenario's domain topology: x periodic per the config, y always.
mesh::Periodicity periodicity(const CfdConfig& cfg) {
  return mesh::Periodicity{cfg.periodic_x, true};
}

}  // namespace

EulerState to_conserved(const EulerPrim& w, double gamma) {
  const double kinetic = 0.5 * w.rho * (w.u * w.u + w.v * w.v);
  return {w.rho, w.rho * w.u, w.rho * w.v, w.p / (gamma - 1.0) + kinetic};
}

EulerPrim to_primitive(const EulerState& s, double gamma) {
  return {s.rho, s.mx / s.rho, s.my / s.rho, pressure(s, gamma)};
}

EulerPrim post_shock_state(double mach, double rho0, double p0, double gamma) {
  const double m2 = mach * mach;
  const double c0 = std::sqrt(gamma * p0 / rho0);
  EulerPrim w;
  w.p = p0 * (1.0 + 2.0 * gamma / (gamma + 1.0) * (m2 - 1.0));
  w.rho = rho0 * ((gamma + 1.0) * m2) / ((gamma - 1.0) * m2 + 2.0);
  w.u = 2.0 / (gamma + 1.0) * (mach - 1.0 / mach) * c0;
  w.v = 0.0;
  return w;
}

CfdSim::CfdSim(mpl::Process& p, const mpl::CartGrid2D& pgrid, const CfdConfig& cfg)
    : CfdSim(p, mesh::block_layout(pgrid, cfg.nx, cfg.ny, periodicity(cfg)),
             mesh::block_owners(pgrid), cfg) {}

CfdSim::CfdSim(mpl::Process& p, const mesh::BlockLayout2D& layout,
               const std::vector<int>& owner, const CfdConfig& cfg)
    : p_(p),
      cfg_(cfg),
      dx_(cfg.lx / static_cast<double>(cfg.nx)),
      dy_(cfg.ly / static_cast<double>(cfg.ny)),
      u_(mesh::require_domain(layout, cfg.nx, cfg.ny, periodicity(cfg),
                              "CfdSim"),
         owner, p.rank()),
      unew_(layout, owner, p.rank()),
      inflow_(to_conserved(post_shock_state(cfg.mach, cfg.rho_light, cfg.p0,
                                            cfg.gamma),
                           cfg.gamma)),
      // The Rusanov stencil is 5-point (no corner-ghost reads), so the
      // plan skips the diagonal strips.
      plan_(u_) {
  std::size_t width = 0;
  for (const auto& b : u_) width = std::max(width, b.grid().ny());
  cells_cur_.resize(width + 2);
  cells_next_.resize(width + 2);
  xface_.resize(width + 2);
}

void CfdSim::set_state(
    const std::function<EulerState(std::size_t, std::size_t)>& fn) {
  u_.init_from_global(fn);
}

void CfdSim::init_shock_interface() {
  const CfdConfig& c = cfg_;
  const EulerState post = inflow_;
  u_.init_from_global([&](std::size_t gi, std::size_t gj) {
    const double x = (static_cast<double>(gi) + 0.5) * dx_;
    const double y = (static_cast<double>(gj) + 0.5) * dy_;
    if (x < c.x_shock) return post;
    const double interface_x =
        c.x_interface + c.amplitude * std::sin(2.0 * std::numbers::pi *
                                               c.interface_modes * y / c.ly);
    const double rho = (x < interface_x) ? c.rho_light : c.rho_heavy;
    return to_conserved({rho, 0.0, 0.0, c.p0}, c.gamma);
  });
}

void CfdSim::apply_physical_bcs() {
  if (cfg_.periodic_x) return;
  // Fills on each block touching a global x face: the rim sweep reads only
  // (-1, j) / (nx, j) with j in [0, ny), all covered here.
  for (auto& b : u_) {
    auto& g = b.grid();
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    // Inflow (fixed post-shock state) at the global x=0 face.
    if (b.x_range().lo == 0) {
      for (std::ptrdiff_t j = -1; j <= ny; ++j) g(-1, j) = inflow_;
    }
    // Outflow (zero gradient) at the global x=lx face.
    if (b.x_range().hi == cfg_.nx) {
      const auto last = static_cast<std::ptrdiff_t>(g.nx()) - 1;
      for (std::ptrdiff_t j = -1; j <= ny; ++j) g(last + 1, j) = g(last, j);
    }
  }
}

void CfdSim::flux_update(const mesh::Grid2D<EulerState>& u,
                         mesh::Grid2D<EulerState>& unew, mesh::Region2 rect,
                         double cx, double cy) {
  if (rect.empty()) return;
  const double gamma = cfg_.gamma;
  // Columns [j0 - 1, j1] of the region's rows map to k in [0, n + 1].
  const std::ptrdiff_t n = rect.j1 - rect.j0;
  const std::ptrdiff_t off = rect.j0 - 1;
  EulerCellFlux* cur = cells_cur_.data();
  EulerCellFlux* next = cells_next_.data();
  EulerState* PPA_RESTRICT fx = xface_.data();
  const auto face_x = [](const EulerState& l, const EulerCellFlux& wl,
                         const EulerState& r, const EulerCellFlux& wr) {
    return rusanov(l, r, wl.sx, wr.sx, wl.fx, wr.fx);
  };
  const auto face_y = [](const EulerState& l, const EulerCellFlux& wl,
                         const EulerState& r, const EulerCellFlux& wr) {
    return rusanov(l, r, wl.sy, wr.sy, wl.fy, wr.fy);
  };

  // x faces above the first row. Rows outside the region feed only x
  // faces, so only their columns [j0, j1) are read.
  {
    const EulerState* PPA_RESTRICT um = u.row(rect.i0 - 1) + off;
    const EulerState* PPA_RESTRICT uc = u.row(rect.i0) + off;
    cell_fluxes(um, next, 1, n + 1, gamma, 0.0);
    cell_fluxes(uc, cur, 0, n + 2, gamma, 0.0);
    for (std::ptrdiff_t k = 1; k <= n; ++k) {
      fx[k] = face_x(um[k], next[k], uc[k], cur[k]);
    }
  }
  for (std::ptrdiff_t i = rect.i0; i < rect.i1; ++i) {
    const EulerState* PPA_RESTRICT uc = u.row(i) + off;
    const EulerState* PPA_RESTRICT up = u.row(i + 1) + off;
    EulerState* PPA_RESTRICT out = unew.row(i) + off;
    const EulerCellFlux* PPA_RESTRICT wc = cur;
    EulerCellFlux* PPA_RESTRICT wp = next;
    if (i + 1 < rect.i1) {
      cell_fluxes(up, wp, 0, n + 2, gamma, 0.0);
    } else {
      cell_fluxes(up, wp, 1, n + 1, gamma, 0.0);
    }
    EulerState fym = face_y(uc[0], wc[0], uc[1], wc[1]);
    for (std::ptrdiff_t k = 1; k <= n; ++k) {
      const EulerState fxm = fx[k];
      const EulerState fxp = face_x(uc[k], wc[k], up[k], wp[k]);
      const EulerState fyp = face_y(uc[k], wc[k], uc[k + 1], wc[k + 1]);
      EulerState s = uc[k];
      s = axpy(s, fxp, -cx);
      s = axpy(s, fxm, +cx);
      s = axpy(s, fyp, -cy);
      s = axpy(s, fym, +cy);
      out[k] = s;
      fx[k] = fxp;
      fym = fyp;
    }
    std::swap(cur, next);
  }
}

double CfdSim::step() {
  // 1. Begin the shadow-copy refresh (y is always periodic in this code);
  // the halo messages stay in flight through steps 2 and 3a.
  plan_.begin_exchange_all(p_, u_);

  // 2. Reduction: global max wave speed -> dt (replicated global). Reads
  // only interior cells, so it overlaps the exchange — including the
  // allreduce's own communication.
  double local_smax = 1e-12;
  for (const auto& b : u_) {
    local_smax = local_max_wave_speed(b.grid(), cfg_.gamma, local_smax);
  }
  const double smax = p_.allreduce(local_smax, mpl::MaxOp{});
  const double dt = cfg_.cfl * std::min(dx_, dy_) / smax;

  // 3. Grid operation: flux-differenced update (reads neighbors of u_,
  // writes unew_ — disjoint input/output per the archetype's restriction).
  // 3a: every block's ghost-independent core, overlapped with the exchange;
  // 3b: complete the exchange, fill physical BCs, then sweep the rims.
  const double cx = dt / dx_;
  const double cy = dt / dy_;
  for (std::size_t b = 0; b < u_.size(); ++b) {
    const auto& ug = u_.block(b).grid();
    flux_update(ug, unew_.block(b).grid(),
                mesh::core_region(ug, 1, mesh::interior_region(ug)), cx, cy);
  }
  plan_.end_exchange_all(p_, u_);
  apply_physical_bcs();
  for (std::size_t b = 0; b < u_.size(); ++b) {
    const auto& ug = u_.block(b).grid();
    auto& ng = unew_.block(b).grid();
    const mesh::Region2 all = mesh::interior_region(ug);
    const mesh::Region2 core = mesh::core_region(ug, 1, all);
    if (core.empty()) {
      flux_update(ug, ng, all, cx, cy);
      continue;
    }
    // The rim as four rectangles: top rows, bottom rows, left and right
    // strips beside the core.
    flux_update(ug, ng, {all.i0, core.i0, all.j0, all.j1}, cx, cy);
    flux_update(ug, ng, {core.i1, all.i1, all.j0, all.j1}, cx, cy);
    flux_update(ug, ng, {core.i0, core.i1, all.j0, core.j0}, cx, cy);
    flux_update(ug, ng, {core.i0, core.i1, core.j1, all.j1}, cx, cy);
  }

  // 4. Swap current and next states.
  std::swap(u_, unew_);
  return dt;
}

double CfdSim::run(int n) {
  double t = 0.0;
  for (int s = 0; s < n; ++s) t += step();
  return t;
}

double CfdSim::integral(double EulerState::*component) {
  const double local = mesh::local_reduce(
      u_, 0.0,
      [component](double acc, const EulerState& s) { return acc + s.*component; });
  return p_.allreduce(local, mpl::SumOp{}) * dx_ * dy_;
}

double CfdSim::total_mass() { return integral(&EulerState::rho); }
double CfdSim::total_energy() { return integral(&EulerState::E); }
double CfdSim::total_momentum_x() { return integral(&EulerState::mx); }

double CfdSim::max_wave_speed() {
  double local = 0.0;
  for (const auto& b : u_) {
    local = local_max_wave_speed(b.grid(), cfg_.gamma, local);
  }
  return p_.allreduce(local, mpl::MaxOp{});
}

double CfdSim::min_density() {
  const double local = mesh::local_reduce(
      u_, 1e300, [](double acc, const EulerState& s) { return std::min(acc, s.rho); });
  return p_.allreduce(local, mpl::MinOp{});
}

double CfdSim::min_pressure() {
  const double local = mesh::local_reduce(
      u_, 1e300, [&](double acc, const EulerState& s) {
        return std::min(acc, pressure(s, cfg_.gamma));
      });
  return p_.allreduce(local, mpl::MinOp{});
}

Array2D<double> CfdSim::gather_density(int root) {
  return mesh::gather_blocks(p_, u_, root,
                             [](const EulerState& s) { return s.rho; });
}

Array2D<double> CfdSim::gather_vorticity(int root) {
  const auto ug = mesh::gather_blocks(
      p_, u_, root, [](const EulerState& s) { return s.mx / s.rho; });
  const auto vg = mesh::gather_blocks(
      p_, u_, root, [](const EulerState& s) { return s.my / s.rho; });
  if (p_.rank() != root) return {};

  Array2D<double> omega(cfg_.nx, cfg_.ny, 0.0);
  for (std::size_t i = 1; i + 1 < cfg_.nx; ++i) {
    for (std::size_t j = 1; j + 1 < cfg_.ny; ++j) {
      const double dvdx = (vg(i + 1, j) - vg(i - 1, j)) / (2.0 * dx_);
      const double dudy = (ug(i, j + 1) - ug(i, j - 1)) / (2.0 * dy_);
      omega(i, j) = dvdx - dudy;
    }
  }
  return omega;
}

Array2D<double> run_shock_interface(const CfdConfig& cfg, int steps, int nprocs,
                                    const mesh::BlockConfig& config) {
  const auto layout =
      mesh::block_layout(config, nprocs, cfg.nx, cfg.ny, periodicity(cfg));
  const auto owner = mesh::block_owners(config, nprocs);
  Array2D<double> density;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    CfdSim sim(p, layout, owner, cfg);
    sim.init_shock_interface();
    sim.run(steps);
    auto rho = sim.gather_density(0);
    if (p.rank() == 0) density = std::move(rho);
  });
  return density;
}

Array2D<double> run_shock_interface(const CfdConfig& cfg, int steps,
                                    mpl::Engine& engine, int nprocs) {
  if (nprocs <= 0) nprocs = engine.width();
  const auto pgrid = mpl::CartGrid2D::near_square(nprocs);
  Array2D<double> density;
  engine.run(nprocs, [&](mpl::Process& p) {
    CfdSim sim(p, pgrid, cfg);
    sim.init_shock_interface();
    sim.run(steps);
    auto rho = sim.gather_density(0);
    if (p.rank() == 0) density = std::move(rho);
  });
  return density;
}

}  // namespace ppa::app
