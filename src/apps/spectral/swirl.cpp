#include "apps/spectral/swirl.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "algorithms/fft.hpp"

namespace ppa::app {

namespace {

using algo::Complex;

/// Signed wavenumber for FFT bin k of an n-point transform with period lz.
double wavenumber(std::size_t k, std::size_t n, double lz) {
  const auto ks = (k <= n / 2) ? static_cast<double>(k)
                               : static_cast<double>(k) - static_cast<double>(n);
  return 2.0 * std::numbers::pi * ks / lz;
}

}  // namespace

SwirlSim::SwirlSim(mpl::Process& p, const SwirlConfig& cfg)
    : p_(p),
      cfg_(cfg),
      dr_((cfg.r_out - cfg.r_in) / static_cast<double>(cfg.nr - 1)),
      dz_(cfg.lz / static_cast<double>(cfg.nz)),
      u_(cfg.nr, cfg.nz, p.size(), p.rank()) {}

double SwirlSim::radius(std::size_t gi) const {
  return cfg_.r_in + static_cast<double>(gi) * dr_;
}

double SwirlSim::axial(std::size_t gj) const {
  return static_cast<double>(gj) * dz_;
}

void SwirlSim::enforce_walls() {
  // No-slip at r_in (global row 0) and r_out (global row nr-1).
  for (std::size_t r = 0; r < u_.rows_local(); ++r) {
    const std::size_t gi = u_.rows().lo + r;
    if (gi == 0 || gi == cfg_.nr - 1) {
      auto row = u_.row(r);
      std::fill(row.begin(), row.end(), 0.0);
    }
  }
}

void SwirlSim::init_jet() {
  const double rc = 0.5 * (cfg_.r_in + cfg_.r_out);
  set_field([&](double r, double z) {
    const double radial = std::exp(-std::pow((r - rc) / cfg_.jet_width, 2.0));
    const double axial_mod =
        1.0 + cfg_.perturb_eps *
                  std::cos(2.0 * std::numbers::pi * cfg_.perturb_mode * z / cfg_.lz);
    return radial * axial_mod;
  });
}

void SwirlSim::step() {
  const std::size_t nz = cfg_.nz;
  const std::size_t local_rows = u_.rows_local();

  // --- Row operations: spectral axial derivatives per radial station. -----
  // uz = du/dz, uzz = d2u/dz2 via FFT -> (ik, -k^2) -> inverse FFT.
  Array2D<double> uz(local_rows, nz, 0.0), uzz(local_rows, nz, 0.0);
  std::vector<Complex> hat(nz), work(nz);
  for (std::size_t r = 0; r < local_rows; ++r) {
    const auto row = u_.row(r);
    for (std::size_t j = 0; j < nz; ++j) hat[j] = Complex(row[j], 0.0);
    algo::fft(std::span<Complex>(hat), false);

    for (std::size_t k = 0; k < nz; ++k) {
      const double kw = wavenumber(k, nz, cfg_.lz);
      work[k] = hat[k] * Complex(0.0, kw);  // ik * u_hat
    }
    // Zero the (unpaired) Nyquist mode of the first derivative.
    if (nz % 2 == 0) work[nz / 2] = Complex(0.0, 0.0);
    algo::fft(std::span<Complex>(work), true);
    for (std::size_t j = 0; j < nz; ++j) uz(r, j) = work[j].real();

    for (std::size_t k = 0; k < nz; ++k) {
      const double kw = wavenumber(k, nz, cfg_.lz);
      work[k] = hat[k] * (-kw * kw);
    }
    algo::fft(std::span<Complex>(work), true);
    for (std::size_t j = 0; j < nz; ++j) uzz(r, j) = work[j].real();
  }

  // --- Column operations: radial operator via 4th-order differences. ------
  // Requires the by-columns distribution: redistribute there and back
  // (paper Fig 7). Lr u = d2u/dr2 + (1/r) du/dr - u/r^2.
  mesh::ColDistributed<double> ucols(cfg_.nr, nz, p_.size(), p_.rank());
  mesh::redistribute(p_, u_, ucols);
  mesh::ColDistributed<double> lrcols(cfg_.nr, nz, p_.size(), p_.rank());
  const std::size_t nr = cfg_.nr;
  for (std::size_t c = 0; c < ucols.cols_local(); ++c) {
    const auto col = ucols.col(c);
    const auto out = lrcols.col(c);
    for (std::size_t i = 0; i < nr; ++i) {
      if (i == 0 || i == nr - 1) {
        out[i] = 0.0;  // walls: no-slip rows are pinned anyway
        continue;
      }
      const double r = radius(i);
      double d1 = 0.0, d2 = 0.0;
      if (i >= 2 && i + 2 < nr) {
        // 4th-order central stencils.
        d1 = (-col[i + 2] + 8.0 * col[i + 1] - 8.0 * col[i - 1] + col[i - 2]) /
             (12.0 * dr_);
        d2 = (-col[i + 2] + 16.0 * col[i + 1] - 30.0 * col[i] +
              16.0 * col[i - 1] - col[i - 2]) /
             (12.0 * dr_ * dr_);
      } else {
        // 2nd-order fallback one point from the walls.
        d1 = (col[i + 1] - col[i - 1]) / (2.0 * dr_);
        d2 = (col[i + 1] - 2.0 * col[i] + col[i - 1]) / (dr_ * dr_);
      }
      out[i] = d2 + d1 / r - col[i] / (r * r);
    }
  }
  mesh::RowDistributed<double> lr(cfg_.nr, nz, p_.size(), p_.rank());
  mesh::redistribute(p_, lrcols, lr);

  // --- Pointwise combination (grid operation). -----------------------------
  for (std::size_t r = 0; r < local_rows; ++r) {
    const std::size_t gi = u_.rows().lo + r;
    if (gi == 0 || gi == cfg_.nr - 1) continue;  // walls pinned
    auto row = u_.row(r);
    const auto lrow = lr.row(r);
    for (std::size_t j = 0; j < nz; ++j) {
      const double advect = cfg_.nonlinear ? -row[j] * uz(r, j) : 0.0;
      row[j] += cfg_.dt * (advect + cfg_.nu * (uzz(r, j) + lrow[j]));
    }
  }
  ++steps_;
}

void SwirlSim::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

double SwirlSim::max_abs_u() {
  double local = 0.0;
  for (std::size_t r = 0; r < u_.rows_local(); ++r) {
    for (double v : u_.row(r)) local = std::max(local, std::abs(v));
  }
  return p_.allreduce(local, mpl::MaxOp{});
}

double SwirlSim::kinetic_energy() {
  double local = 0.0;
  for (std::size_t r = 0; r < u_.rows_local(); ++r) {
    const double rad = radius(u_.rows().lo + r);
    for (double v : u_.row(r)) local += v * v * rad;
  }
  return p_.allreduce(local, mpl::SumOp{}) * dr_ * dz_;
}

Array2D<double> SwirlSim::gather_field(int root) {
  return mesh::gather_matrix(p_, u_, root);
}

Array2D<double> run_swirl(const SwirlConfig& cfg, int steps, int nprocs) {
  Array2D<double> field;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    SwirlSim sim(p, cfg);
    sim.init_jet();
    sim.run(steps);
    auto f = sim.gather_field(0);
    if (p.rank() == 0) field = std::move(f);
  });
  return field;
}

}  // namespace ppa::app
