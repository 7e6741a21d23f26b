// ppa/apps/spectral/swirl.hpp
//
// Axisymmetric incompressible swirling-flow code on the 2-D *spectral*
// archetype (paper section 7.3: "numerical solution of the three-dimensional
// Euler equations for incompressible flow with axisymmetry. Periodicity is
// assumed in the axial direction; the numerical scheme uses a Fourier
// spectral method in the periodic direction and a fourth-order finite
// difference method in the radial direction").
//
// Model: the azimuthal velocity u(r, z, t) of an axisymmetric swirling
// annulus, advanced by
//
//   du/dt + u du/dz = nu * [ d2u/dz2 + d2u/dr2 + (1/r) du/dr - u/r^2 ]
//
// (azimuthal momentum with axial self-advection and full cylindrical
// viscous operator), no-slip at the annulus walls r = r_in, r = r_out,
// periodic in z.
//
// Numerics per time step — the archetype's row-op/col-op composition:
//   row ops   : FFT each radial station's axial profile; differentiate
//               spectrally (ik and -k^2); inverse FFT (rows = r stations,
//               distributed by rows);
//   col ops   : 4th-order central differences in r for the radial operator
//               (requires distribution by columns — one redistribution each
//               way, paper Fig 7);
//   pointwise : explicit Euler combination of the terms.
//
// The paper's Fig 21 shows "azimuthal velocity in a swirling flow" — the
// u(r, z) field this code outputs.
#pragma once

#include <cstddef>

#include "meshspectral/rowcol.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

struct SwirlConfig {
  std::size_t nr = 64;    ///< radial stations (rows)
  std::size_t nz = 64;    ///< axial points (columns; power of two)
  double r_in = 0.5;      ///< annulus inner radius
  double r_out = 1.5;     ///< annulus outer radius
  double lz = 2.0;        ///< axial period
  double nu = 2e-3;       ///< kinematic viscosity
  double dt = 2e-4;
  /// Initial condition: swirl jet u = exp(-((r-rc)/w)^2) * (1 + eps*cos(2 pi m z / lz)).
  double jet_width = 0.15;
  double perturb_eps = 0.3;
  int perturb_mode = 2;
  /// Disable the nonlinear u du/dz term (pure diffusion; used by tests).
  bool nonlinear = true;
};

/// Per-process simulation. The field is row-distributed (rows = radial
/// stations, each holding a full contiguous axial profile).
class SwirlSim {
 public:
  SwirlSim(mpl::Process& p, const SwirlConfig& cfg);

  /// Set u(r, z) from a function of (r, z) physical coordinates.
  template <typename F>
  void set_field(F&& f) {
    u_.init_from_global([&](std::size_t gi, std::size_t gj) {
      return f(radius(gi), axial(gj));
    });
    enforce_walls();
  }

  /// Initialize the default perturbed swirl jet.
  void init_jet();

  void step();
  void run(int steps);

  // Diagnostics (identical on all ranks).
  [[nodiscard]] double max_abs_u();
  [[nodiscard]] double kinetic_energy();  ///< sum of u^2 r dr dz (annulus measure)

  /// Gathered dense u(r, z) on root (empty elsewhere).
  [[nodiscard]] Array2D<double> gather_field(int root = 0);

  [[nodiscard]] double radius(std::size_t gi) const;
  [[nodiscard]] double axial(std::size_t gj) const;
  [[nodiscard]] int steps_taken() const { return steps_; }

 private:
  void enforce_walls();

  mpl::Process& p_;
  SwirlConfig cfg_;
  double dr_;
  double dz_;
  mesh::RowDistributed<double> u_;
  int steps_ = 0;
};

/// Convenience driver: run the jet scenario and return the final field.
[[nodiscard]] Array2D<double> run_swirl(const SwirlConfig& cfg, int steps,
                                        int nprocs);

}  // namespace ppa::app
