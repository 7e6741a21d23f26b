// ppa/apps/cfd/euler2d.hpp
//
// Two-dimensional compressible-flow code on the 2-D mesh archetype (paper
// section 7.1: "two similar computational fluid dynamics codes ... simulate
// high Mach number compressible flow, both ... based on the two-dimensional
// mesh archetype").
//
// Physics: compressible Euler equations, conserved variables
// U = (rho, rho*u, rho*v, E), ideal gas p = (gamma-1)(E - rho(u^2+v^2)/2).
// Numerics: finite volume with Rusanov (local Lax-Friedrichs) fluxes,
// dimension-by-dimension, CFL-limited explicit Euler stepping. One row
// kernel computes every cell's primitives (velocity, pressure, sound
// speed), two cells at a time on SSE2: divpd and sqrtpd round each lane
// exactly as divsd and sqrtsd round a scalar, so each lane holds the bits
// of the one-cell form. The dt reduction runs it for the carried max
// wave speed alone. The flux update runs it into a rolling row buffer
// that caches each cell's physical fluxes along x and y and its two wave
// speeds, so a face flux only combines its two cells' cached terms, and
// each cell's physical fluxes are evaluated once. The update sweeps a
// rectangle of a block row by row (not through kern::sweep_rim_rows),
// carrying each x-face flux from one row to the next and each y-face flux
// along the row, so every face flux is evaluated once too. A face flux is
// the same pure function of its two states wherever it is evaluated, so
// the result is bitwise the per-cell form (tests/seq_oracles.hpp) under
// any decomposition. The ghost-independent core is one rectangle; the rim
// is at most four (top rows, bottom rows, left and right strips), or the
// whole block when its core is empty.
//
// Archetype structure per step (the mesh pattern, split-phase):
//   1. begin the halo exchange (one batched BlockExchangePlan2D round over
//      the rank's block set),
//   2. reduction: global max wave speed -> dt (a replicated global) — the
//      allreduce runs while the halo messages are in flight,
//   3. grid operation: flux differencing of the ghost-independent core,
//   4. end the exchange, fill physical BCs at global boundaries, then
//      flux-difference the ghost-dependent rim,
//   5. swap.
//
// Scenario (paper Figs 19-20): a planar Mach-M shock propagating in +x into
// gas at rest whose density jumps from rho_light to rho_heavy across a
// sinusoidally perturbed interface — "density as a shock interacts with a
// sinusoidal density gradient".
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

/// Conserved state of one cell.
struct EulerState {
  double rho = 1.0;  ///< density
  double mx = 0.0;   ///< x momentum density
  double my = 0.0;   ///< y momentum density
  double E = 1.0;    ///< total energy density
  friend bool operator==(const EulerState&, const EulerState&) = default;
};
static_assert(mpl::Wire<EulerState>);

/// Primitive description used for initialization.
struct EulerPrim {
  double rho = 1.0;
  double u = 0.0;
  double v = 0.0;
  double p = 1.0;
};

[[nodiscard]] EulerState to_conserved(const EulerPrim& w, double gamma);
[[nodiscard]] EulerPrim to_primitive(const EulerState& s, double gamma);

/// One cell's terms of the Rusanov fluxes through its faces: its physical
/// fluxes along x and y, and its wave speeds |u| + c and |v| + c. CfdSim's
/// flux update caches them one row at a time.
struct EulerCellFlux {
  EulerState fx;
  EulerState fy;
  double sx = 0.0;
  double sy = 0.0;
};

struct CfdConfig {
  std::size_t nx = 192;  ///< cells in x
  std::size_t ny = 64;   ///< cells in y
  double lx = 3.0;       ///< domain size
  double ly = 1.0;
  double gamma = 1.4;
  double cfl = 0.4;

  // Shock/interface scenario parameters.
  double mach = 1.5;          ///< shock Mach number (into the light gas)
  double x_shock = 0.4;       ///< initial shock position
  double x_interface = 0.8;   ///< mean interface position
  double amplitude = 0.08;    ///< interface perturbation amplitude
  int interface_modes = 2;    ///< sine periods across the y extent
  double rho_light = 1.0;
  double rho_heavy = 3.0;
  double p0 = 1.0;            ///< quiescent pressure

  /// true: fully periodic box (conservation testing); false: inflow at x=0
  /// (post-shock state), outflow at x=lx, periodic in y (the scenario).
  bool periodic_x = false;
};

/// Post-shock primitive state from the Rankine–Hugoniot relations for a
/// Mach-`mach` shock running into (rho0, p0) gas at rest.
[[nodiscard]] EulerPrim post_shock_state(double mach, double rho0, double p0,
                                         double gamma);

/// Per-process simulation of the distributed Euler solve on a
/// block-decomposed domain: each rank advances all the blocks it owns, and
/// every step runs one batched boundary round over the whole block set
/// (BlockExchangePlan2D). Every cell update uses the same arithmetic under
/// any decomposition, so all of them reproduce the np=1 fields bitwise.
class CfdSim {
 public:
  /// One block per rank of `pgrid` (block (bx, by) on pgrid.rank_of(bx, by)).
  CfdSim(mpl::Process& p, const mpl::CartGrid2D& pgrid, const CfdConfig& cfg);
  /// Any block layout of the config's domain and any block→rank map. The
  /// layout must have cfg's extents, ghost width >= 1 and periodicity
  /// {cfg.periodic_x, true}; std::invalid_argument otherwise.
  CfdSim(mpl::Process& p, const mesh::BlockLayout2D& layout,
         const std::vector<int>& owner, const CfdConfig& cfg);

  /// Replace the state with fn(global_i, global_j) (for tests/custom ICs).
  void set_state(const std::function<EulerState(std::size_t, std::size_t)>& fn);

  /// Initialize the paper's shock/interface scenario.
  void init_shock_interface();

  /// Advance one time step; returns the dt taken (identical on all ranks).
  double step();
  /// Advance `n` steps; returns the simulated time advanced.
  double run(int n);

  // Diagnostics (reduction operations: results on all ranks).
  [[nodiscard]] double total_mass();
  [[nodiscard]] double total_energy();
  [[nodiscard]] double total_momentum_x();
  [[nodiscard]] double max_wave_speed();
  [[nodiscard]] double min_density();
  [[nodiscard]] double min_pressure();

  /// Gathered dense fields on root (empty elsewhere).
  [[nodiscard]] Array2D<double> gather_density(int root = 0);
  /// Vorticity dv/dx - du/dy by central differences on the gathered
  /// velocity fields (computed at root).
  [[nodiscard]] Array2D<double> gather_vorticity(int root = 0);

  [[nodiscard]] const mesh::BlockSet<EulerState>& state() const { return u_; }
  [[nodiscard]] const mesh::BlockExchangePlan2D& plan() const { return plan_; }
  [[nodiscard]] const CfdConfig& config() const { return cfg_; }
  [[nodiscard]] double dx() const { return dx_; }
  [[nodiscard]] double dy() const { return dy_; }

 private:
  void apply_physical_bcs();
  /// Flux-differenced update of rectangle `rect` of one block, u -> unew.
  void flux_update(const mesh::Grid2D<EulerState>& u,
                   mesh::Grid2D<EulerState>& unew, mesh::Region2 rect,
                   double cx, double cy);
  /// Sum of one conserved component over the domain, times the cell area.
  double integral(double EulerState::*component);

  mpl::Process& p_;
  CfdConfig cfg_;
  double dx_;
  double dy_;
  mesh::BlockSet<EulerState> u_;
  mesh::BlockSet<EulerState> unew_;
  EulerState inflow_;
  mesh::BlockExchangePlan2D plan_;  ///< one batched round per step
  // flux_update's row buffers, sized once from the widest owned block + 2:
  // the cached face-flux terms (EulerCellFlux) of the current and the next
  // row, and the x-face fluxes carried from one row to the next.
  std::vector<EulerCellFlux> cells_cur_, cells_next_;
  std::vector<EulerState> xface_;
};

/// Convenience driver: run the shock-interface scenario for `steps` steps on
/// `nprocs` SPMD processes and return the final gathered density field.
/// `config` picks the block decomposition (default: one block per rank).
[[nodiscard]] Array2D<double> run_shock_interface(
    const CfdConfig& cfg, int steps, int nprocs,
    const mesh::BlockConfig& config = {});

/// Same scenario as one warm job on a persistent engine (`nprocs` defaults
/// to the engine width); back-to-back runs reuse the engine's rank threads.
/// The one app driver still taking an engine: the repository benchmark's
/// mesh_bandwidth workload (bench/ppa_bench) runs the scenario directly on
/// its engine. Every other driver submits through an mpl::Scheduler.
[[nodiscard]] Array2D<double> run_shock_interface(const CfdConfig& cfg, int steps,
                                                  mpl::Engine& engine,
                                                  int nprocs = 0);

}  // namespace ppa::app
