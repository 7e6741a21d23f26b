// tests/seq_oracles.hpp
//
// Sequential single-grid oracles for the euler2d and fdtd3d time steps.
// Each restates its app's step as plain per-point loops over one global
// grid with a one-cell ghost frame: no blocks, no halo exchange, no row or
// pencil kernels. Boundary conditions, the dt reduction, the soft source
// and the PEC walls follow the app's definition. The per-cell physics is
// restated here rather than shared with the library, so a change to a
// library kernel expression (operand, operation order) shows up as a
// bitwise mismatch in tests/test_kernels.cpp.
//
// Every cell update uses the same floating-point expression and operation
// order as the app, and the only reductions are max (exact under any
// association), so the app reproduces these fields bitwise on any
// decomposition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <utility>
#include <vector>

#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "support/ndarray.hpp"

namespace ppa::oracle {

/// Dense grid of nx x ny cells framed by one ghost cell per side; indices
/// run over [-1, nx] x [-1, ny].
template <typename T>
class Framed2 {
 public:
  Framed2(std::size_t nx, std::size_t ny)
      : nx_(static_cast<std::ptrdiff_t>(nx)),
        ny_(static_cast<std::ptrdiff_t>(ny)),
        data_((nx + 2) * (ny + 2)) {}
  T& operator()(std::ptrdiff_t i, std::ptrdiff_t j) {
    return data_[static_cast<std::size_t>((i + 1) * (ny_ + 2) + (j + 1))];
  }
  const T& operator()(std::ptrdiff_t i, std::ptrdiff_t j) const {
    return data_[static_cast<std::size_t>((i + 1) * (ny_ + 2) + (j + 1))];
  }
  [[nodiscard]] std::ptrdiff_t nx() const { return nx_; }
  [[nodiscard]] std::ptrdiff_t ny() const { return ny_; }

 private:
  std::ptrdiff_t nx_;
  std::ptrdiff_t ny_;
  std::vector<T> data_;
};

/// Dense n^3 grid framed by one ghost cell per side, zero-initialized.
class Framed3 {
 public:
  explicit Framed3(std::size_t n)
      : m_(static_cast<std::ptrdiff_t>(n) + 2), data_((n + 2) * (n + 2) * (n + 2)) {}
  double& operator()(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    return data_[static_cast<std::size_t>(((i + 1) * m_ + (j + 1)) * m_ + (k + 1))];
  }

 private:
  std::ptrdiff_t m_;
  std::vector<double> data_;
};

// ----------------------------------------------------------------- euler --

namespace euler {

using app::EulerState;

inline double pressure(const EulerState& s, double gamma) {
  const double kinetic = 0.5 * (s.mx * s.mx + s.my * s.my) / s.rho;
  return (gamma - 1.0) * (s.E - kinetic);
}

inline double sound_speed(const EulerState& s, double gamma) {
  return std::sqrt(gamma * pressure(s, gamma) / s.rho);
}

inline EulerState flux_x(const EulerState& s, double gamma) {
  const double u = s.mx / s.rho;
  const double p = pressure(s, gamma);
  return {s.mx, s.mx * u + p, s.my * u, (s.E + p) * u};
}

inline EulerState flux_y(const EulerState& s, double gamma) {
  const double v = s.my / s.rho;
  const double p = pressure(s, gamma);
  return {s.my, s.mx * v, s.my * v + p, (s.E + p) * v};
}

inline EulerState axpy(const EulerState& a, const EulerState& b, double c) {
  return {a.rho + c * b.rho, a.mx + c * b.mx, a.my + c * b.my, a.E + c * b.E};
}

/// Rusanov flux through the face between `l` and `r`; `speed` is the
/// normal velocity component and `flux` the physical flux along the axis.
template <typename Speed, typename Flux>
EulerState rusanov(const EulerState& l, const EulerState& r, double gamma,
                   Speed speed, Flux flux) {
  const double sl = std::abs(speed(l)) + sound_speed(l, gamma);
  const double sr = std::abs(speed(r)) + sound_speed(r, gamma);
  const double smax = std::max(sl, sr);
  const EulerState fl = flux(l, gamma);
  const EulerState fr = flux(r, gamma);
  return {0.5 * (fl.rho + fr.rho) - 0.5 * smax * (r.rho - l.rho),
          0.5 * (fl.mx + fr.mx) - 0.5 * smax * (r.mx - l.mx),
          0.5 * (fl.my + fr.my) - 0.5 * smax * (r.my - l.my),
          0.5 * (fl.E + fr.E) - 0.5 * smax * (r.E - l.E)};
}

inline EulerState rusanov_x(const EulerState& l, const EulerState& r,
                            double gamma) {
  return rusanov(l, r, gamma, [](const EulerState& s) { return s.mx / s.rho; },
                 flux_x);
}

inline EulerState rusanov_y(const EulerState& l, const EulerState& r,
                            double gamma) {
  return rusanov(l, r, gamma, [](const EulerState& s) { return s.my / s.rho; },
                 flux_y);
}

}  // namespace euler

/// The global max wave speed max(|u| + c, |v| + c) over the interior cells
/// of `u`, folded in row order from CfdSim::step's floor of 1e-12.
inline double euler_max_wave_speed(const Framed2<app::EulerState>& u,
                                   double gamma) {
  using app::EulerState;
  double smax = 1e-12;
  for (std::ptrdiff_t i = 0; i < u.nx(); ++i) {
    for (std::ptrdiff_t j = 0; j < u.ny(); ++j) {
      const EulerState& q = u(i, j);
      const double cs = euler::sound_speed(q, gamma);
      smax = std::max(smax, std::abs(q.mx / q.rho) + cs);
      smax = std::max(smax, std::abs(q.my / q.rho) + cs);
    }
  }
  return smax;
}

/// `steps` CfdSim::step calls on one grid, starting from the state
/// init(i, j) (global cell indices, as CfdSim::set_state); returns the
/// final conserved state.
template <typename Init>
Array2D<app::EulerState> euler_steps(const app::CfdConfig& c, Init&& init,
                                     int steps) {
  using app::EulerState;
  const auto nx = static_cast<std::ptrdiff_t>(c.nx);
  const auto ny = static_cast<std::ptrdiff_t>(c.ny);
  const double dx = c.lx / static_cast<double>(c.nx);
  const double dy = c.ly / static_cast<double>(c.ny);
  const EulerState inflow = app::to_conserved(
      app::post_shock_state(c.mach, c.rho_light, c.p0, c.gamma), c.gamma);

  Framed2<EulerState> u(c.nx, c.ny), unew(c.nx, c.ny);
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      u(i, j) = init(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }

  for (int s = 0; s < steps; ++s) {
    // Ghost frame: y periodic; x periodic, or post-shock inflow at x = 0
    // and zero-gradient outflow at x = lx.
    for (std::ptrdiff_t i = 0; i < nx; ++i) {
      u(i, -1) = u(i, ny - 1);
      u(i, ny) = u(i, 0);
    }
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      u(-1, j) = c.periodic_x ? u(nx - 1, j) : inflow;
      u(nx, j) = c.periodic_x ? u(0, j) : u(nx - 1, j);
    }

    // dt from the global max wave speed.
    const double dt = c.cfl * std::min(dx, dy) / euler_max_wave_speed(u, c.gamma);
    const double cx = dt / dx;
    const double cy = dt / dy;

    // Flux-differenced update of every cell.
    for (std::ptrdiff_t i = 0; i < nx; ++i) {
      for (std::ptrdiff_t j = 0; j < ny; ++j) {
        const EulerState fxm = euler::rusanov_x(u(i - 1, j), u(i, j), c.gamma);
        const EulerState fxp = euler::rusanov_x(u(i, j), u(i + 1, j), c.gamma);
        const EulerState fym = euler::rusanov_y(u(i, j - 1), u(i, j), c.gamma);
        const EulerState fyp = euler::rusanov_y(u(i, j), u(i, j + 1), c.gamma);
        EulerState q = u(i, j);
        q = euler::axpy(q, fxp, -cx);
        q = euler::axpy(q, fxm, +cx);
        q = euler::axpy(q, fyp, -cy);
        q = euler::axpy(q, fym, +cy);
        unew(i, j) = q;
      }
    }
    std::swap(u, unew);
  }

  Array2D<EulerState> out(c.nx, c.ny);
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      out(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = u(i, j);
    }
  }
  return out;
}

/// The euler2d shock-interface scenario (CfdSim::init_shock_interface, then
/// `steps` CfdSim::step calls) on one grid; returns the density field.
inline Array2D<double> euler_shock_interface(const app::CfdConfig& c, int steps) {
  using app::EulerState;
  const double dx = c.lx / static_cast<double>(c.nx);
  const double dy = c.ly / static_cast<double>(c.ny);
  const EulerState inflow = app::to_conserved(
      app::post_shock_state(c.mach, c.rho_light, c.p0, c.gamma), c.gamma);
  const auto state = euler_steps(
      c,
      [&](std::size_t i, std::size_t j) {
        const double x = (static_cast<double>(i) + 0.5) * dx;
        const double y = (static_cast<double>(j) + 0.5) * dy;
        const double interface_x =
            c.x_interface + c.amplitude * std::sin(2.0 * std::numbers::pi *
                                                   c.interface_modes * y / c.ly);
        const double rho = (x < interface_x) ? c.rho_light : c.rho_heavy;
        return x < c.x_shock ? inflow
                             : app::to_conserved({rho, 0.0, 0.0, c.p0}, c.gamma);
      },
      steps);

  Array2D<double> rho(c.nx, c.ny);
  for (std::size_t i = 0; i < c.nx; ++i) {
    for (std::size_t j = 0; j < c.ny; ++j) rho(i, j) = state(i, j).rho;
  }
  return rho;
}

// ------------------------------------------------------------------ fdtd --

/// The fdtd3d scattering scenario (FdtdSim construction, then `steps`
/// FdtdSim::step calls) on one grid; returns the Ez plane k = n/2.
inline Array2D<double> em_scattering(const app::EmConfig& c, int steps) {
  const auto n = static_cast<std::ptrdiff_t>(c.n);
  const double dt = c.courant / std::sqrt(3.0);
  // Ghost frames stay zero: the PEC walls' outside.
  Framed3 ex(c.n), ey(c.n), ez(c.n), hx(c.n), hy(c.n), hz(c.n), inv_eps(c.n);

  const double c0 = static_cast<double>(c.n) / 2.0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    for (std::ptrdiff_t j = 0; j < n; ++j) {
      for (std::ptrdiff_t k = 0; k < n; ++k) {
        const double dxc = static_cast<double>(i) - c0;
        const double dyc = static_cast<double>(j) - c0;
        const double dzc = static_cast<double>(k) - c0;
        const double r = std::sqrt(dxc * dxc + dyc * dyc + dzc * dzc);
        inv_eps(i, j, k) = r <= c.sphere_radius ? 1.0 / c.eps_sphere : 1.0;
      }
    }
  }

  const auto each = [n](auto&& f) {
    for (std::ptrdiff_t i = 0; i < n; ++i)
      for (std::ptrdiff_t j = 0; j < n; ++j)
        for (std::ptrdiff_t k = 0; k < n; ++k) f(i, j, k);
  };

  for (int s = 0; s < steps; ++s) {
    // H -= dt * curl E (E at +1 neighbors).
    each([&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
      hx(i, j, k) += dt * ((ey(i, j, k + 1) - ey(i, j, k)) -
                           (ez(i, j + 1, k) - ez(i, j, k)));
      hy(i, j, k) += dt * ((ez(i + 1, j, k) - ez(i, j, k)) -
                           (ex(i, j, k + 1) - ex(i, j, k)));
      hz(i, j, k) += dt * ((ex(i, j + 1, k) - ex(i, j, k)) -
                           (ey(i + 1, j, k) - ey(i, j, k)));
    });
    // E += dt/eps * curl H (H at -1 neighbors).
    each([&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
      const double ie = inv_eps(i, j, k);
      ex(i, j, k) += dt * ie * ((hz(i, j, k) - hz(i, j - 1, k)) -
                                (hy(i, j, k) - hy(i, j, k - 1)));
      ey(i, j, k) += dt * ie * ((hx(i, j, k) - hx(i, j, k - 1)) -
                                (hz(i, j, k) - hz(i - 1, j, k)));
      ez(i, j, k) += dt * ie * ((hy(i, j, k) - hy(i - 1, j, k)) -
                                (hx(i, j, k) - hx(i, j - 1, k)));
    });
    // Soft source with a smooth turn-on ramp.
    const double t = static_cast<double>(s);
    const double ramp = 1.0 - std::exp(-t / (2.0 * c.source_period));
    ez(static_cast<std::ptrdiff_t>(c.src_i), static_cast<std::ptrdiff_t>(c.src_j),
       static_cast<std::ptrdiff_t>(c.src_k)) +=
        ramp * std::sin(2.0 * std::numbers::pi * t / c.source_period);
    // PEC walls: tangential E = 0 on the boundary faces.
    for (std::ptrdiff_t a = 0; a < n; ++a) {
      for (std::ptrdiff_t b = 0; b < n; ++b) {
        for (const std::ptrdiff_t w : {std::ptrdiff_t{0}, n - 1}) {
          ey(w, a, b) = ez(w, a, b) = 0.0;
          ex(a, w, b) = ez(a, w, b) = 0.0;
          ex(a, b, w) = ey(a, b, w) = 0.0;
        }
      }
    }
  }

  Array2D<double> plane(c.n, c.n);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    for (std::ptrdiff_t j = 0; j < n; ++j) {
      plane(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          ez(i, j, n / 2);
    }
  }
  return plane;
}

}  // namespace ppa::oracle
