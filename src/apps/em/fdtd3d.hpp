// ppa/apps/em/fdtd3d.hpp
//
// Three-dimensional electromagnetic scattering code on the 3-D mesh
// archetype (paper section 7.2: "numerical simulation of electromagnetic
// scattering, radiation and coupling problems using a finite difference time
// domain technique ... based on the three-dimensional mesh archetype").
//
// Physics: Maxwell's curl equations in normalized units (c = eps0 = mu0 = 1)
// on the Yee staggered grid, leapfrog in time:
//
//     H^{n+1/2} = H^{n-1/2} - dt * curl E^n
//     E^{n+1}   = E^n       + dt / eps * curl H^{n+1/2}
//
// with a dielectric sphere scatterer (relative permittivity eps_r), a soft
// sinusoidal point source on Ez, and PEC (perfect electric conductor) walls.
//
// Archetype structure per step (split-phase since PR 2): begin the E halo
// exchanges for all three components at once -> update H over the ghost-
// independent core while the E halos are in flight -> end the E exchanges ->
// update the H rim; then the same begin/core/end/rim pattern for the E
// update against the H halos. The H update reads E at +1 neighbors and the
// E update reads H at -1 neighbors, exactly the ghost-width-1 stencil
// pattern the mesh archetype supports; each field owns a persistent
// ExchangePlan3D (distinct tag blocks, so all three component exchanges of
// a phase are concurrently in flight).
//
// Yee property exploited by the tests: the discrete divergence of H (and of
// eps*E in charge-free regions away from the source) is *exactly* conserved
// by the update, because the discrete div of the discrete curl vanishes
// identically.
#pragma once

#include <array>
#include <cstddef>

#include "meshspectral/grid3d.hpp"
#include "meshspectral/ops.hpp"
#include "meshspectral/plan.hpp"
#include "mpl/spmd.hpp"
#include "mpl/topology.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

struct EmConfig {
  std::size_t n = 32;          ///< cubic grid: n x n x n cells, dx = 1
  double courant = 0.5;        ///< dt = courant / sqrt(3)
  double eps_sphere = 4.0;     ///< relative permittivity of the scatterer
  double sphere_radius = 6.0;  ///< in cells; centered in the domain
  double source_period = 20.0; ///< steps per source oscillation
  /// Source location (cell indices); defaults to the x=n/4 plane center.
  std::size_t src_i = 8, src_j = 16, src_k = 16;
};

class FdtdSim {
 public:
  FdtdSim(mpl::Process& p, const mpl::CartGrid3D& pgrid, const EmConfig& cfg);

  /// Advance one full leapfrog step (H half-step then E step + source).
  void step();
  void run(int steps);

  /// Inject an initial divergence-free E perturbation (for source-free
  /// energy tests): a Gaussian-modulated Ez ring.
  void seed_gaussian_ez(double amplitude, double width);

  /// Disable the soft source (source-free cavity mode).
  void disable_source() { source_enabled_ = false; }

  // Diagnostics (reductions; identical on all ranks).
  [[nodiscard]] double field_energy();       ///< sum (eps*E^2 + H^2)/2
  [[nodiscard]] double max_abs_ez();
  [[nodiscard]] double max_abs_div_h();      ///< discrete div H, max norm

  /// Gather the Ez values on the global plane k = n/2 to root (dense n x n
  /// array on root, empty elsewhere) — the scattering visualization.
  [[nodiscard]] Array2D<double> gather_ez_plane(int root = 0);

  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] const EmConfig& config() const { return cfg_; }

 private:
  void update_h_pencil(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k0,
                       std::ptrdiff_t k1);
  void update_e_pencil(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k0,
                       std::ptrdiff_t k1);
  void update_h(const mesh::Region3& r);
  void update_e(const mesh::Region3& r);
  void update_h_rim(const mesh::Region3& all, const mesh::Region3& core);
  void update_e_rim(const mesh::Region3& all, const mesh::Region3& core);
  void apply_pec();
  void begin_exchange_e();
  void end_exchange_e();
  void begin_exchange_h();
  void end_exchange_h();

  mpl::Process& p_;
  EmConfig cfg_;
  double dt_;
  int steps_ = 0;
  bool source_enabled_ = true;
  mesh::Grid3D<double> ex_, ey_, ez_, hx_, hy_, hz_;
  mesh::Grid3D<double> inv_eps_;  ///< 1/eps per cell (precomputed material map)
  // Persistent halo-exchange plans, one per exchanged field, on distinct
  // tag blocks so a whole phase's exchanges can be in flight together.
  mesh::ExchangePlan3D plan_ex_, plan_ey_, plan_ez_;
  mesh::ExchangePlan3D plan_hx_, plan_hy_, plan_hz_;
};

/// Convenience driver for the scattering scenario; returns the final Ez
/// midplane on rank 0.
[[nodiscard]] Array2D<double> run_em_scattering(const EmConfig& cfg, int steps,
                                                int nprocs);

}  // namespace ppa::app
