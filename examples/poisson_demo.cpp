// examples/poisson_demo.cpp
//
// The Jacobi Poisson solver (paper section 6): solve the unit-square
// problem with a heated-patch right-hand side on 4 SPMD processes, report
// convergence, and render the solution field. The solver iterates on the
// split-phase exchange: a persistent BlockExchangePlan2D round (one block
// per process, 2-deep halo) is begun every two sweeps, the first sweep's
// ghost-independent core is relaxed while the halos are in flight, the
// rest after end_exchange_all, and one allreduce decides both sweeps.
//
// Runs as a smoke test: prints one SELF-CHECK line and exits nonzero on
// failure (converged, positive iteration count, and a hot interior).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apps/poisson/poisson.hpp"
#include "support/image.hpp"

int main() {
  using namespace ppa;
  app::PoissonProblem prob;
  prob.nx = prob.ny = 97;
  prob.tolerance = 5e-7;
  // Two heat sources and a cold boundary.
  prob.f = [](double x, double y) {
    const auto bump = [](double cx, double cy, double x_, double y_) {
      const double r2 = (x_ - cx) * (x_ - cx) + (y_ - cy) * (y_ - cy);
      return std::exp(-r2 / 0.005);
    };
    return -40.0 * (bump(0.3, 0.35, x, y) + 0.7 * bump(0.7, 0.65, x, y));
  };
  prob.g = [](double, double) { return 0.0; };

  const auto result = app::poisson_spmd(prob, 4);
  std::printf("Jacobi converged in %zu iterations (final diffmax = %.2e)\n",
              result.iterations, result.final_diffmax);

  double umax = 0.0;
  for (double v : result.u.flat()) umax = std::max(umax, v);
  std::printf("peak temperature: %.4f\n\n", umax);
  std::printf("%s\n", img::ascii_field(result.u, 72).c_str());
  img::write_ppm("poisson_solution.ppm", result.u);
  std::printf("wrote poisson_solution.ppm\n");

  const bool ok = result.final_diffmax <= prob.tolerance &&
                  result.iterations > 0 && umax > 0.0;
  std::printf("SELF-CHECK: poisson_demo %s (iters=%zu, diffmax=%.2e, umax=%.3f)\n",
              ok ? "ok" : "FAILED", result.iterations, result.final_diffmax,
              umax);
  return ok ? 0 : 1;
}
