// The two mesh workloads.
//
//   mesh_latency   — Jacobi Poisson solves to tol 1e-6 on 98x98 at np=4:
//                    ~10k iterations per solve, each one halo round and one
//                    allreduce over only 49x49 points per rank, so the
//                    message substrate and plan pack/unpack dominate.
//   mesh_bandwidth — 20-step euler2d shock-interface runs on 768x384 cells
//                    at np=4: 2.4 MB per field per rank, so the flux sweeps
//                    dominate and the exchange is a few percent.
//
// The traced mesh_latency solve rebuilds poisson_process's iteration from
// the public calls it makes (plan begin/end, the kern:: row sweeps, the
// allreduce, gather_grid), with a span around each; its result must equal
// poisson_v1's bitwise like the library solve's. CfdSim's step is not
// split by public calls, so the traced mesh_bandwidth run spans init, each
// step and the gather.
#include <algorithm>
#include <utility>

#include "apps/cfd/euler2d.hpp"
#include "harness.hpp"
#include "meshspectral/meshspectral.hpp"

namespace ppa_bench {
namespace {

using namespace ppa;

constexpr int kMeshNp = 4;
/// Iterations per traced solve whose layer calls also go to the span log
/// (every iteration is aggregated).
constexpr std::size_t kDetailIters = 20;

// ------------------------------------------------------------ mesh_latency --

/// One rank's layer times over one traced solve.
struct PoissonRankTimes {
  Clock::duration init{}, begin{}, end{}, sweep{}, reduce_copy{}, allreduce{},
      gather{};
  double cells = 0;  ///< interior points this rank updates per iteration
};

/// max |a - b| over region r, in poisson_process's row order. Kept out of
/// line so the running max stays in a register: inlined into the traced
/// loop, GCC 12 kept it in a stack slot, which doubled the reduction's cost
/// and the traced solve ran 1.4x the library's.
[[gnu::noinline]] double local_absdiff_max(mesh::FieldView2D<double> a,
                                           mesh::FieldView2D<const double> b,
                                           mesh::Region2 r) {
  double m = 0.0;
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    m = mesh::kern::absdiff_max_row(a.row(i), b.row(i), r.j0, r.j1, m);
  }
  return m;
}

/// poisson_process rebuilt from its public calls with a span around each
/// layer call: same grids, plan, kernels and call order, so the same bytes.
/// Times accumulate in a local and are stored to `out` once: the ranks'
/// slots share cache lines, and per-iteration stores to them would cost
/// more than the iteration.
app::PoissonResult traced_poisson_process(mpl::Process& p,
                                          const mpl::CartGrid2D& pgrid,
                                          const app::PoissonProblem& prob,
                                          PoissonRankTimes& out, SpanLog* log,
                                          std::uint64_t op) {
  PoissonRankTimes t;
  const auto t_init = Clock::now();
  const std::size_t nx = prob.nx;
  const std::size_t ny = prob.ny;
  const double h = 1.0 / static_cast<double>(std::max(nx, ny) - 1);

  mesh::Grid2D<double> uk(nx, ny, pgrid, p.rank(), 1);
  mesh::Grid2D<double> ukp(nx, ny, pgrid, p.rank(), 1);
  mesh::Grid2D<double> fv(nx, ny, pgrid, p.rank(), 1);
  fv.init_from_global([&](std::size_t gi, std::size_t gj) {
    return prob.f(static_cast<double>(gi) * h, static_cast<double>(gj) * h);
  });
  uk.init_from_global([&](std::size_t gi, std::size_t gj) {
    const bool boundary = (gi == 0 || gi == nx - 1 || gj == 0 || gj == ny - 1);
    return boundary
               ? prob.g(static_cast<double>(gi) * h, static_cast<double>(gj) * h)
               : 0.0;
  });
  ukp.copy_interior_from(uk);

  const auto ilo = static_cast<std::ptrdiff_t>(uk.x_range().lo == 0 ? 1 : 0);
  const auto jlo = static_cast<std::ptrdiff_t>(uk.y_range().lo == 0 ? 1 : 0);
  const auto ihi = static_cast<std::ptrdiff_t>(uk.nx()) -
                   (uk.x_range().hi == nx ? 1 : 0);
  const auto jhi = static_cast<std::ptrdiff_t>(uk.ny()) -
                   (uk.y_range().hi == ny ? 1 : 0);
  mesh::Global<double> diffmax(prob.tolerance + 1.0);
  mesh::ExchangePlan2D plan(pgrid, p.rank(), uk,
                            mesh::ExchangePlan2D::Options{{}, false, 0});
  const mesh::Region2 update{ilo, ihi, jlo, jhi};
  const mesh::Region2 core = mesh::core_region(uk, 1, update);

  auto ukpv = mesh::field_view(ukp);
  const auto ukv = mesh::field_view(std::as_const(uk));
  const auto fvv = mesh::field_view(std::as_const(fv));
  auto ukw = mesh::field_view(uk);
  const double h2 = h * h;
  const auto jacobi_rows = [&](std::ptrdiff_t i, std::ptrdiff_t j0,
                               std::ptrdiff_t j1) {
    mesh::kern::jacobi_row(ukpv.row(i), ukv.row(i - 1), ukv.row(i),
                           ukv.row(i + 1), fvv.row(i), h2, j0, j1);
  };
  t.cells = static_cast<double>((ihi - ilo) * (jhi - jlo));
  t.init = mark(log, "engine", "meshspectral", "init", t_init, op) - t_init;

  app::PoissonResult result;
  while (diffmax.get() > prob.tolerance && result.iterations < prob.max_iters) {
    SpanLog* detail = result.iterations < kDetailIters ? log : nullptr;
    const auto s0 = Clock::now();
    plan.begin_exchange(p, uk);
    const auto s1 = mark(detail, "engine", "meshspectral.plan", "begin", s0, op);
    mesh::kern::sweep_rows_tiled(
        core, mesh::kern::auto_tile_j(5 * sizeof(double), core.j1 - core.j0),
        jacobi_rows);
    const auto s2 = mark(detail, "engine", "meshspectral.kern", "sweep_core", s1, op);
    plan.end_exchange(p, uk);
    const auto s3 = mark(detail, "engine", "meshspectral.plan", "end", s2, op);
    mesh::kern::sweep_rim_rows(update, core, jacobi_rows);
    const auto s4 = mark(detail, "engine", "meshspectral.kern", "sweep_rim", s3, op);
    const double local_diffmax = local_absdiff_max(ukpv, ukv, update);
    const auto s5 = mark(detail, "engine", "meshspectral.kern", "reduce", s4, op);
    diffmax.store_replicated(p, p.allreduce(local_diffmax, mpl::MaxOp{}));
    const auto s6 = mark(detail, "engine", "mpl.collective", "allreduce", s5, op);
    for (std::ptrdiff_t i = ilo; i < ihi; ++i) {
      mesh::kern::copy_row(ukw.row(i), ukpv.row(i), jlo, jhi);
    }
    const auto s7 = mark(detail, "engine", "meshspectral.kern", "copy", s6, op);
    t.begin += s1 - s0;
    t.sweep += (s2 - s1) + (s4 - s3);
    t.end += s3 - s2;
    t.reduce_copy += (s5 - s4) + (s7 - s6);
    t.allreduce += s6 - s5;
    ++result.iterations;
  }

  const auto g0 = Clock::now();
  result.u = mesh::gather_grid(p, pgrid, uk, 0);
  t.gather = mark(log, "engine", "meshspectral.io", "gather", g0, op) - g0;
  result.final_diffmax = diffmax.get();
  out = t;
  return result;
}

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

}  // namespace

Outcome run_mesh_latency(const RunOptions& opt, const StealMonitor& steal, SpanLog* log) {
  Outcome out;
  const std::size_t n = opt.check ? 34 : 98;
  const double tol = opt.check ? 1e-4 : 1e-6;
  const std::size_t pool_size = opt.check ? 1 : 4;

  Rng rng(opt.seed);
  std::vector<app::PoissonProblem> pool;
  for (std::size_t i = 0; i < pool_size; ++i) pool.push_back(seeded_poisson(rng, n, tol));

  // Oracles, outside setup_s: poisson_v1 per problem, timed as the
  // sequential baseline.
  std::vector<app::PoissonResult> oracle;
  std::vector<double> seq_s, seq_iters;
  for (const auto& prob : pool) {
    const auto t0 = Clock::now();
    oracle.push_back(app::poisson_v1(prob));
    seq_s.push_back(seconds_between(t0, Clock::now()));
    seq_iters.push_back(static_cast<double>(oracle.back().iterations));
  }
  const auto matches = [&](const app::PoissonResult& r, std::size_t k) {
    return r.iterations == oracle[k].iterations && bitwise_equal(r.u, oracle[k].u);
  };

  // The library path: one warm np=4 solve through the scheduler.
  OpLog ops;
  const auto solve = [&](Serving& s, std::size_t k) {
    out.checked("mesh_latency solve", [&] {
      const auto t0 = Clock::now();
      const auto r = app::poisson_spmd(pool[k], *s.sched, kMeshNp);
      ops.add(t0, Clock::now());
      return matches(r, k);
    });
  };

  SetupTimer setup(opt, steal, [&](Serving& s) { solve(s, 0); });
  auto serving = setup.before();
  ops = OpLog{};

  if (!opt.traced) {
    const auto phase_start = Clock::now();
    run_for(opt.seconds, [&](std::size_t k) { solve(*serving, k % pool_size); });
    emit_end_to_end(out, steal, phase_start, ops);
    out.add("setup_s", setup.after(std::move(serving)), "s");
    return out;
  }

  // Traced: library solves and traced rebuilt solves alternate, so the
  // untraced median in trace.overhead comes from the same time window.
  const auto pgrid = mpl::CartGrid2D::near_square(kMeshNp);
  std::vector<double> traced_op_s, iterations, body_s;
  std::vector<double> begin_s, end_s, allreduce_s, sweep_s, reduce_copy_s, gather_s,
      init_s, imbalance, cells_per_s;
  LayerSamples layers;
  run_for(opt.seconds, [&](std::size_t k) {
    const std::size_t idx = (k / 2) % pool_size;
    if (k % 2 == 0) {
      solve(*serving, idx);
      return;
    }
    std::vector<PoissonRankTimes> times(kMeshNp);
    app::PoissonResult result;
    out.checked("mesh_latency traced solve", [&] {
      const auto js = run_stamped(
          *serving->sched, kMeshNp,
          [&](mpl::Process& p) {
            auto local = traced_poisson_process(
                p, pgrid, pool[idx], times[static_cast<std::size_t>(p.rank())], log, k);
            if (p.rank() == 0) result = std::move(local);
          },
          log, "poisson_solve", k);
      traced_op_s.push_back(seconds_between(js.submit, js.done));
      layers.add_job(js);
      layers.add_counts(js.trace);
      ++layers.ops;
      body_s.push_back(js.body_s());
      return matches(result, idx);
    });
    const double iters = std::max<double>(static_cast<double>(result.iterations), 1.0);
    iterations.push_back(static_cast<double>(result.iterations));
    std::vector<double> r_begin, r_end, r_all, r_sweep, r_rc, r_init, r_busy;
    for (const auto& t : times) {
      r_begin.push_back(secs(t.begin) / iters);
      r_end.push_back(secs(t.end) / iters);
      r_all.push_back(secs(t.allreduce) / iters);
      r_sweep.push_back(secs(t.sweep) / iters);
      r_rc.push_back(secs(t.reduce_copy) / iters);
      r_init.push_back(secs(t.init));
      r_busy.push_back(secs(t.sweep + t.reduce_copy));
      cells_per_s.push_back(t.cells * iters / std::max(secs(t.sweep), 1e-12));
    }
    begin_s.push_back(median(r_begin));
    end_s.push_back(median(r_end));
    allreduce_s.push_back(median(r_all));
    sweep_s.push_back(median(r_sweep));
    reduce_copy_s.push_back(median(r_rc));
    init_s.push_back(median(r_init));
    gather_s.push_back(secs(times[0].gather));
    imbalance.push_back(*std::max_element(r_busy.begin(), r_busy.end()) /
                        median(r_busy));
  });

  layers.emit(out, serving->sched->stats());
  emit_mesh_scaling(out, kMeshNp, iterations, body_s, seq_iters, seq_s);
  out.add("trace.overhead", median(traced_op_s) / median(ops.seconds()), "ratio");
  // Layer breakdown of one iteration (median over solves of the median
  // over ranks), and per-solve init and gather.
  out.add("meshspectral.plan.begin_s", median(begin_s), "s");
  out.add("meshspectral.plan.end_s", median(end_s), "s");
  out.add("mpl.collective.allreduce_s", median(allreduce_s), "s");
  out.add("meshspectral.kern.sweep_s", median(sweep_s), "s");
  out.add("meshspectral.kern.reduce_copy_s", median(reduce_copy_s), "s");
  out.add("meshspectral.init_s", median(init_s), "s");
  out.add("meshspectral.io.gather_s", median(gather_s), "s");
  out.add("rank.imbalance", median(imbalance), "ratio");
  const double rate = median(cells_per_s);
  out.add("meshspectral.kern.cells_per_s", rate, "1/s");
  // Jacobi streams u, f and u' once per point: 3 doubles computed per cell.
  out.add("meshspectral.kern.gb_per_s_computed", rate * 3 * sizeof(double) / 1e9,
          "GB/s");
  return out;
}

// ---------------------------------------------------------- mesh_bandwidth --

namespace {

/// One rank's stamps over one 20-step run.
struct CfdRankTimes {
  Clock::duration init{}, steps{}, gather{};
};

/// The shock-interface run as run_shock_interface does it (CfdSim, init,
/// `steps` steps, gather_density on rank 0), optionally spanned.
Array2D<double> cfd_body(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                         const app::CfdConfig& cfg, int steps, CfdRankTimes* t,
                         SpanLog* log, std::uint64_t op) {
  const auto t0 = Clock::now();
  app::CfdSim sim(p, pgrid, cfg);
  sim.init_shock_interface();
  auto s = mark(log, "engine", "apps.cfd", "init", t0, op);
  const auto t1 = s;
  for (int i = 0; i < steps; ++i) {
    (void)sim.step();
    s = mark(log, "engine", "apps.cfd", "step", s, op);
  }
  const auto t2 = s;
  auto rho = sim.gather_density(0);
  const auto t3 = mark(log, "engine", "meshspectral.io", "gather", t2, op);
  if (t != nullptr) *t = CfdRankTimes{t1 - t0, t2 - t1, t3 - t2};
  return rho;
}

app::CfdConfig seeded_cfd(Rng& rng, std::size_t nx, std::size_t ny) {
  app::CfdConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.mach = rng.uniform(1.45, 1.55);
  cfg.amplitude = rng.uniform(0.07, 0.09);
  cfg.x_interface = rng.uniform(0.78, 0.82);
  cfg.interface_modes = 2 + static_cast<int>(rng.uniform_u64(2));
  return cfg;
}

}  // namespace

Outcome run_mesh_bandwidth(const RunOptions& opt, const StealMonitor& steal,
                           SpanLog* log) {
  Outcome out;
  const std::size_t nx = opt.check ? 96 : 768;
  const std::size_t ny = opt.check ? 48 : 384;
  const int steps = opt.check ? 4 : 20;
  const std::size_t pool_size = opt.check ? 1 : 2;

  Rng rng(opt.seed);
  std::vector<app::CfdConfig> pool;
  for (std::size_t i = 0; i < pool_size; ++i) pool.push_back(seeded_cfd(rng, nx, ny));

  // Oracles, outside setup_s: the np=1 gathered density (the solve is
  // np-invariant bitwise), timed as the sequential baseline.
  std::vector<Array2D<double>> oracle;
  std::vector<double> seq_s, seq_step_s;
  {
    mpl::Engine one(1);
    const auto pgrid1 = mpl::CartGrid2D::near_square(1);
    for (const auto& cfg : pool) {
      CfdRankTimes t;
      const auto t0 = Clock::now();
      one.run(1, [&](mpl::Process& p) {
        oracle.push_back(cfd_body(p, pgrid1, cfg, steps, &t, nullptr, 0));
      });
      seq_s.push_back(seconds_between(t0, Clock::now()));
      seq_step_s.push_back(secs(t.steps) / steps);
    }
  }

  // The library path: run_shock_interface on the warm engine. The
  // scheduler in front of it is idle whenever this runs, so the job gets
  // ranks {0..3}, as a solo scheduler job would.
  OpLog ops;
  const auto run_once = [&](Serving& s, std::size_t k) {
    out.checked("mesh_bandwidth run", [&] {
      const auto t0 = Clock::now();
      const auto density = app::run_shock_interface(pool[k], steps, *s.engine, kMeshNp);
      ops.add(t0, Clock::now());
      return bitwise_equal(density, oracle[k]);
    });
  };

  SetupTimer setup(opt, steal, [&](Serving& s) { run_once(s, 0); });
  auto serving = setup.before();
  ops = OpLog{};

  if (!opt.traced) {
    const auto phase_start = Clock::now();
    run_for(opt.seconds, [&](std::size_t k) { run_once(*serving, k % pool_size); });
    emit_end_to_end(out, steal, phase_start, ops);
    out.add("setup_s", setup.after(std::move(serving)), "s");
    return out;
  }

  const auto pgrid = mpl::CartGrid2D::near_square(kMeshNp);
  std::vector<double> traced_op_s, body_s, init_s, step_s, gather_s, imbalance;
  LayerSamples layers;
  run_for(opt.seconds, [&](std::size_t k) {
    const std::size_t idx = (k / 2) % pool_size;
    if (k % 2 == 0) {
      run_once(*serving, idx);
      return;
    }
    std::vector<CfdRankTimes> times(kMeshNp);
    Array2D<double> density;
    out.checked("mesh_bandwidth traced run", [&] {
      const auto js = run_stamped(
          *serving->sched, kMeshNp,
          [&](mpl::Process& p) {
            const auto r = static_cast<std::size_t>(p.rank());
            auto rho = cfd_body(p, pgrid, pool[idx], steps, &times[r], log, k);
            if (r == 0) density = std::move(rho);
          },
          log, "cfd_run", k);
      traced_op_s.push_back(seconds_between(js.submit, js.done));
      layers.add_job(js);
      layers.add_counts(js.trace);
      ++layers.ops;
      body_s.push_back(js.body_s());
      return bitwise_equal(density, oracle[idx]);
    });
    std::vector<double> r_step, r_init;
    for (const auto& t : times) {
      r_step.push_back(secs(t.steps) / steps);
      r_init.push_back(secs(t.init));
    }
    step_s.push_back(median(r_step));
    init_s.push_back(median(r_init));
    gather_s.push_back(secs(times[0].gather));
    imbalance.push_back(*std::max_element(r_step.begin(), r_step.end()) /
                        median(r_step));
  });

  layers.emit(out, serving->sched->stats());
  const std::vector<double> step_counts(body_s.size(), static_cast<double>(steps));
  const std::vector<double> seq_counts(seq_s.size(), static_cast<double>(steps));
  emit_mesh_scaling(out, kMeshNp, step_counts, body_s, seq_counts, seq_s);
  out.add("trace.overhead", median(traced_op_s) / median(ops.seconds()), "ratio");
  const double step = median(step_s);
  const double seq_step = median(seq_step_s);
  out.add("apps.cfd.init_s", median(init_s), "s");
  out.add("apps.cfd.step_s", step, "s");
  out.add("apps.cfd.parallel_overhead_s", step - seq_step / kMeshNp, "s");
  out.add("meshspectral.io.gather_s", median(gather_s), "s");
  out.add("rank.imbalance", median(imbalance), "ratio");
  // np=1 CfdSim::step: the flux kernels over the whole grid on one core.
  const double cells_per_s = static_cast<double>(nx * ny) / seq_step;
  out.add("meshspectral.kern.cells_per_s", cells_per_s, "1/s");
  // Each step reads u and writes u': two 32-byte EulerStates per cell.
  out.add("meshspectral.kern.gb_per_s_computed",
          cells_per_s * 2 * sizeof(app::EulerState) / 1e9, "GB/s");
  return out;
}

}  // namespace ppa_bench
