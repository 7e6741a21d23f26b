#include "apps/airshed/airshed.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ppa::app {

namespace {

Chem operator+(const Chem& a, const Chem& b) {
  return {a.no + b.no, a.no2 + b.no2, a.o3 + b.o3, a.voc + b.voc};
}
Chem operator*(double s, const Chem& a) {
  return {s * a.no, s * a.no2, s * a.o3, s * a.voc};
}

/// Chemistry right-hand side. j: NO2 photolysis; k: NO+O3 titration;
/// kv_eff: daylight-scaled VOC pathway rate; voc_cons: VOC consumed per NO
/// converted through the pathway. Total nitrogen (no + no2) is conserved by
/// construction.
Chem chem_rhs(const Chem& c, double j, double k, double kv_eff, double voc_cons) {
  const double titration = k * c.no * c.o3;         // NO + O3 -> NO2
  const double photolysis = j * c.no2;              // NO2 + hv -> NO + O3
  const double voc_path = kv_eff * c.voc * c.no;    // NO + VOC -> NO2
  return {photolysis - titration - voc_path,        // d NO
          titration - photolysis + voc_path,        // d NO2
          photolysis - titration,                   // d O3
          -voc_cons * voc_path};                    // d VOC
}

/// One cell of first-order upwind advection + central diffusion, applied
/// componentwise.
Chem advect_cell(const mesh::Grid2D<Chem>& c, std::ptrdiff_t i,
                 std::ptrdiff_t j, double u, double v, double kdiff, double dt,
                 double dx, double dy) {
  const auto upwind_x = [&](auto pick) {
    const double cm = pick(c(i - 1, j)), c0 = pick(c(i, j)),
                 cp = pick(c(i + 1, j));
    return u > 0.0 ? u * (c0 - cm) / dx : u * (cp - c0) / dx;
  };
  const auto upwind_y = [&](auto pick) {
    const double cm = pick(c(i, j - 1)), c0 = pick(c(i, j)),
                 cp = pick(c(i, j + 1));
    return v > 0.0 ? v * (c0 - cm) / dy : v * (cp - c0) / dy;
  };
  const auto laplacian = [&](auto pick) {
    return (pick(c(i - 1, j)) - 2.0 * pick(c(i, j)) + pick(c(i + 1, j))) /
               (dx * dx) +
           (pick(c(i, j - 1)) - 2.0 * pick(c(i, j)) + pick(c(i, j + 1))) /
               (dy * dy);
  };
  const auto advance = [&](auto pick) {
    return pick(c(i, j)) +
           dt * (-upwind_x(pick) - upwind_y(pick) + kdiff * laplacian(pick));
  };
  Chem out;
  out.no = advance([](const Chem& q) { return q.no; });
  out.no2 = advance([](const Chem& q) { return q.no2; });
  out.o3 = advance([](const Chem& q) { return q.o3; });
  out.voc = advance([](const Chem& q) { return q.voc; });
  return out;
}

/// One cell of RK4 chemistry (clipped).
Chem chem_cell(const Chem& c0, double j, double k, double kv_eff, double vc,
               double dt) {
  const Chem k1 = chem_rhs(c0, j, k, kv_eff, vc);
  const Chem k2 = chem_rhs(c0 + (0.5 * dt) * k1, j, k, kv_eff, vc);
  const Chem k3 = chem_rhs(c0 + (0.5 * dt) * k2, j, k, kv_eff, vc);
  const Chem k4 = chem_rhs(c0 + dt * k3, j, k, kv_eff, vc);
  Chem next = c0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
  // Clip tiny negatives from the explicit integrator.
  next.no = std::max(next.no, 0.0);
  next.no2 = std::max(next.no2, 0.0);
  next.o3 = std::max(next.o3, 0.0);
  next.voc = std::max(next.voc, 0.0);
  return next;
}

/// Daylight half-sine photolysis rate between 6h and 18h, zero at night.
double diurnal_photolysis(const AirshedConfig& cfg, double hour) {
  const double t = std::fmod(hour, 24.0);
  if (t < 6.0 || t > 18.0) return 0.0;
  return cfg.rate_j_max * std::sin(std::numbers::pi * (t - 6.0) / 12.0);
}

/// The background field and the two-hotspot emission map.
Chem background_cell(const AirshedConfig& cfg) {
  return Chem{0.001, 0.002, cfg.background_o3, cfg.background_voc};
}
Chem emission_cell(const AirshedConfig& cfg, double dx, double dy,
                   std::size_t gi, std::size_t gj) {
  const double cx1 = 0.3 * cfg.lx, cy1 = 0.5 * cfg.ly;
  const double cx2 = 0.6 * cfg.lx, cy2 = 0.35 * cfg.ly;
  const double sigma = 0.06 * cfg.lx;
  const double x = (static_cast<double>(gi) + 0.5) * dx;
  const double y = (static_cast<double>(gj) + 0.5) * dy;
  const double g1 = std::exp(-((x - cx1) * (x - cx1) + (y - cy1) * (y - cy1)) /
                             (2.0 * sigma * sigma));
  const double g2 = std::exp(-((x - cx2) * (x - cx2) + (y - cy2) * (y - cy2)) /
                             (2.0 * sigma * sigma));
  const double strength = g1 + 0.7 * g2;
  return Chem{cfg.emission_no * strength, cfg.emission_no2 * strength, 0.0,
              cfg.emission_voc * strength};
}

double pick_species(const Chem& q, int species) {
  switch (species) {
    case 0: return q.no;
    case 1: return q.no2;
    case 2: return q.o3;
    default: return q.voc;
  }
}

/// The domain topology: fully periodic or fully open.
mesh::Periodicity periodicity(const AirshedConfig& cfg) {
  return mesh::Periodicity{cfg.periodic, cfg.periodic};
}

}  // namespace

AirshedSim::AirshedSim(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                       const AirshedConfig& cfg)
    : AirshedSim(p, mesh::block_layout(pgrid, cfg.nx, cfg.ny, periodicity(cfg)),
                 mesh::block_owners(pgrid), cfg) {}

AirshedSim::AirshedSim(mpl::Process& p, const mesh::BlockLayout2D& layout,
                       const std::vector<int>& owner, const AirshedConfig& cfg)
    : p_(p),
      cfg_(cfg),
      dx_(cfg.lx / static_cast<double>(cfg.nx)),
      dy_(cfg.ly / static_cast<double>(cfg.ny)),
      c_(mesh::require_domain(layout, cfg.nx, cfg.ny, periodicity(cfg),
                              "AirshedSim"),
         owner, p.rank()),
      cnew_(layout, owner, p.rank()),
      emissions_([&] {
        mesh::BlockLayout2D e = layout;
        e.ghost = 0;
        return mesh::BlockSet<Chem>(e, owner, p.rank());
      }()),
      // Upwind/diffusion is a 5-point stencil (no corner-ghost reads), so
      // the plan skips the diagonal strips.
      plan_(c_) {
  init_background();
}

void AirshedSim::init_background() {
  c_.init_from_global(
      [&](std::size_t, std::size_t) { return background_cell(cfg_); });
  // Two urban hotspots (Gaussian footprints) emitting NO and some NO2.
  emissions_.init_from_global([&](std::size_t gi, std::size_t gj) {
    return emission_cell(cfg_, dx_, dy_, gi, gj);
  });
}

void AirshedSim::set_field(const std::function<Chem(std::size_t, std::size_t)>& fn) {
  c_.init_from_global(fn);
}

void AirshedSim::disable_emissions() {
  for (auto& b : emissions_) b.grid().fill(Chem{});
}

double AirshedSim::photolysis_rate(double hour) const {
  return diurnal_photolysis(cfg_, hour);
}

void AirshedSim::transport_step() {
  // Precondition: fresh shadow copies for the upwind/diffusion stencil.
  // Split-phase: begin the exchange, sweep every block's ghost-independent
  // core while halos are in flight, complete it (+ BC ghost fill), sweep
  // the rims.
  plan_.begin_exchange_all(p_, c_);

  const double u = cfg_.wind_u;
  const double v = cfg_.wind_v;
  const double kdiff = cfg_.diffusion;
  const double dt = cfg_.dt;
  const auto sweep = [&](std::size_t b, bool rim) {
    const auto& cg = c_.block(b).grid();
    auto& ng = cnew_.block(b).grid();
    const mesh::Region2 all = mesh::interior_region(cg);
    const mesh::Region2 core = mesh::core_region(cg, 1, all);
    const auto cell = [&](std::ptrdiff_t i, std::ptrdiff_t j) {
      ng(i, j) = advect_cell(cg, i, j, u, v, kdiff, dt, dx_, dy_);
    };
    if (rim) {
      mesh::for_rim(all, core, cell);
    } else {
      mesh::for_region(core, cell);
    }
  };

  for (std::size_t b = 0; b < c_.size(); ++b) sweep(b, /*rim=*/false);
  plan_.end_exchange_all(p_, c_);
  if (!cfg_.periodic) {
    // Open boundaries: zero-gradient inflow/outflow ghosts on each block
    // touching a global face.
    for (auto& blk : c_) {
      auto& g = blk.grid();
      const auto nx = static_cast<std::ptrdiff_t>(g.nx());
      const auto ny = static_cast<std::ptrdiff_t>(g.ny());
      if (blk.x_range().lo == 0) {
        for (std::ptrdiff_t j = -1; j <= ny; ++j) g(-1, j) = g(0, j);
      }
      if (blk.x_range().hi == cfg_.nx) {
        for (std::ptrdiff_t j = -1; j <= ny; ++j) g(nx, j) = g(nx - 1, j);
      }
      if (blk.y_range().lo == 0) {
        for (std::ptrdiff_t i = -1; i <= nx; ++i) g(i, -1) = g(i, 0);
      }
      if (blk.y_range().hi == cfg_.ny) {
        for (std::ptrdiff_t i = -1; i <= nx; ++i) g(i, ny) = g(i, ny - 1);
      }
    }
  }
  for (std::size_t b = 0; b < c_.size(); ++b) sweep(b, /*rim=*/true);

  std::swap(c_, cnew_);
}

void AirshedSim::chemistry_step() {
  // Pointwise grid operation: no communication. RK4 on the local ODE.
  const double j = photolysis_rate(hour_);
  const double k = cfg_.rate_k;
  const double kv_eff = cfg_.rate_kv * (j / cfg_.rate_j_max);
  const double vc = cfg_.voc_consumption;
  const double dt = cfg_.dt;
  for (auto& b : c_) {
    auto& g = b.grid();
    mesh::for_interior(g, [&](std::ptrdiff_t i, std::ptrdiff_t jj) {
      g(i, jj) = chem_cell(g(i, jj), j, k, kv_eff, vc, dt);
    });
  }
}

void AirshedSim::step() {
  transport_step();
  // Emissions (pointwise source injection).
  for (std::size_t b = 0; b < c_.size(); ++b) {
    auto& g = c_.block(b).grid();
    const auto& e = emissions_.block(b).grid();
    mesh::for_interior(g, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
      g(i, j).no += cfg_.dt * e(i, j).no;
      g(i, j).no2 += cfg_.dt * e(i, j).no2;
      g(i, j).voc += cfg_.dt * e(i, j).voc;
    });
  }
  chemistry_step();
  hour_ += cfg_.dt;
}

void AirshedSim::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

double AirshedSim::total(int species) {
  const double local = mesh::local_reduce(c_, 0.0, [&](double acc, const Chem& q) {
    return acc + pick_species(q, species);
  });
  return p_.allreduce(local, mpl::SumOp{}) * dx_ * dy_;
}

double AirshedSim::total_nitrogen() {
  const double local = mesh::local_reduce(
      c_, 0.0, [](double acc, const Chem& q) { return acc + q.no + q.no2; });
  return p_.allreduce(local, mpl::SumOp{}) * dx_ * dy_;
}

double AirshedSim::max_o3() {
  const double local = mesh::local_reduce(
      c_, 0.0, [](double acc, const Chem& q) { return std::max(acc, q.o3); });
  return p_.allreduce(local, mpl::MaxOp{});
}

double AirshedSim::min_concentration() {
  const double local = mesh::local_reduce(c_, 1e300, [](double acc, const Chem& q) {
    return std::min({acc, q.no, q.no2, q.o3, q.voc});
  });
  return p_.allreduce(local, mpl::MinOp{});
}

Array2D<double> AirshedSim::gather_species(int species, int root) {
  return mesh::gather_blocks(p_, c_, root, [species](const Chem& q) {
    return pick_species(q, species);
  });
}

}  // namespace ppa::app
