// ppa/apps/airshed/airshed.hpp
//
// Airshed photochemical smog model on the mesh-spectral archetype (paper
// section 7.4: the CIT airshed model "models smog in the Los Angeles basin
// ... conceptually based on the mesh-spectral archetype"; see also Dabdub &
// Seinfeld, the paper's refs [15-17], which describe the same
// transport/chemistry operator-splitting structure).
//
// Species: the classic NO / NO2 / O3 photostationary triad plus a VOC
// surrogate that carries the smog-forming pathway,
//
//     NO2 + hv        -> NO + O3       (photolysis rate j, diurnal)
//     NO + O3         -> NO2           (titration, rate k)
//     NO + VOC (+ hv) -> NO2 (+ ...)   (RO2 shortcut, rate kv * j/jmax)
//
// The third reaction is the one-step surrogate for VOC + OH -> RO2,
// RO2 + NO -> NO2: it converts NO to NO2 *without* consuming ozone, which
// is what makes net O3 production (photochemical smog) possible — without
// it the first two reactions form a null cycle.
//
// Physics per step (operator splitting, exactly the production model's
// structure):
//   1. transport  — advection by a prescribed wind field (first-order
//                   upwind) + eddy diffusion: stencil grid operation with a
//                   boundary exchange precondition. Split-phase: one
//                   batched BlockExchangePlan2D round is begun, every
//                   block's ghost-independent core is swept while halos are
//                   in flight, and the rims are swept after end_exchange_all
//                   (+ BC fill);
//   2. emissions  — NO/NO2/VOC sources at "city" cells (pointwise);
//   3. chemistry  — the stiff local ODE advanced pointwise (RK4): a
//                   pointwise grid operation with *no* communication.
//
// Invariants exploited by tests: chemistry conserves total nitrogen
// (NO + NO2) pointwise; periodic transport conserves every species' total
// mass.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

/// Concentrations (arbitrary units) of one cell.
struct Chem {
  double no = 0.0;
  double no2 = 0.0;
  double o3 = 0.0;
  double voc = 0.0;
  friend bool operator==(const Chem&, const Chem&) = default;
};
static_assert(mpl::Wire<Chem>);

struct AirshedConfig {
  std::size_t nx = 96;  ///< west-east cells
  std::size_t ny = 64;  ///< south-north cells
  double lx = 60.0;     ///< km
  double ly = 40.0;     ///< km
  double dt = 0.01;     ///< hours
  double diffusion = 0.5;     ///< eddy diffusivity (km^2/h)
  double wind_u = 3.0;        ///< mean wind (km/h), +x
  double wind_v = 1.0;
  double rate_k = 20.0;       ///< NO + O3 -> NO2 rate
  double rate_j_max = 8.0;    ///< peak NO2 photolysis rate (noon)
  double rate_kv = 25.0;      ///< NO + VOC -> NO2 rate at peak daylight
  double voc_consumption = 0.1;  ///< VOC consumed per NO converted
  double background_o3 = 0.04;
  double background_voc = 0.5;
  /// Emission sources: two "city" hotspots emitting NO, NO2, and VOC.
  double emission_no = 2.0;
  double emission_no2 = 0.2;
  double emission_voc = 4.0;
  bool periodic = false;  ///< fully periodic domain (conservation tests)
};

/// Airshed model on a block-decomposed domain: each rank advances all the
/// blocks it owns; transport runs one batched boundary round per step over
/// the whole block set; emissions and chemistry stay pointwise per block.
/// Every cell update uses the same arithmetic under any decomposition, so
/// all of them reproduce the np=1 fields bitwise.
class AirshedSim {
 public:
  /// One block per rank of `pgrid` (block (bx, by) on pgrid.rank_of(bx, by)).
  AirshedSim(mpl::Process& p, const mpl::CartGrid2D& pgrid,
             const AirshedConfig& cfg);
  /// Any block layout of the config's domain and any block→rank map. The
  /// layout must have cfg's extents, ghost width >= 1 and periodicity
  /// {cfg.periodic, cfg.periodic}; std::invalid_argument otherwise.
  AirshedSim(mpl::Process& p, const mesh::BlockLayout2D& layout,
             const std::vector<int>& owner, const AirshedConfig& cfg);

  /// Initialize background concentrations and the emission map.
  void init_background();
  /// Replace the field (tests).
  void set_field(const std::function<Chem(std::size_t, std::size_t)>& fn);
  /// Zero the emission map (tests of pure transport/chemistry).
  void disable_emissions();

  /// Photolysis rate at simulated hour-of-day t (diurnal half-sine).
  [[nodiscard]] double photolysis_rate(double hour) const;

  void step();
  void run(int steps);

  // Diagnostics (reductions; identical on all ranks).
  [[nodiscard]] double total(int species);    ///< 0=NO, 1=NO2, 2=O3, 3=VOC mass
  [[nodiscard]] double total_nitrogen();      ///< sum of NO + NO2
  [[nodiscard]] double max_o3();
  [[nodiscard]] double min_concentration();   ///< min over all species/cells

  /// Gathered dense field of one species on root (0=NO, 1=NO2, 2=O3, 3=VOC).
  [[nodiscard]] Array2D<double> gather_species(int species, int root = 0);

  [[nodiscard]] double hour() const { return hour_; }
  [[nodiscard]] const AirshedConfig& config() const { return cfg_; }
  [[nodiscard]] const mesh::BlockSet<Chem>& state() const { return c_; }
  [[nodiscard]] const mesh::BlockExchangePlan2D& plan() const { return plan_; }

  /// Advance only the chemistry operator (tests).
  void chemistry_step();
  /// Advance only the transport operator (tests).
  void transport_step();

 private:
  mpl::Process& p_;
  AirshedConfig cfg_;
  double dx_;
  double dy_;
  double hour_ = 8.0;  ///< simulated time, hours since midnight
  mesh::BlockSet<Chem> c_;
  mesh::BlockSet<Chem> cnew_;
  mesh::BlockSet<Chem> emissions_;  ///< ghost-free source map per block
  mesh::BlockExchangePlan2D plan_;  ///< one batched round per transport step
};

}  // namespace ppa::app
