// Regenerates paper Figure 6: "Speedups of traditional and one-deep
// mergesort compared to sequential mergesort for ~10^6 integers on the
// Intel Delta."
//
// Measured: both algorithms at laptop scale. Modeled: both algorithms on
// the Intel Delta preset out to 64 processors (the paper's x-range), via
// the archetype performance model.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "apps/sort/sort.hpp"
#include "bench/bench_common.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/models.hpp"
#include "support/rng.hpp"

int main() {
  using namespace ppa;
  bench::print_header(
      "Figure 6",
      "traditional vs one-deep mergesort speedup (Intel Delta, ~1M integers)");

  // --- measured -------------------------------------------------------------
  const std::size_t n = 400'000;
  const auto data = random_ints(n, -1000000000, 1000000000, 4242);
  std::printf("\n[one-deep mergesort, n=%zu]", n);
  const auto measured_onedeep =
      bench::measure_speedups({1, 2, 4}, 3, [&](int p) {
        auto out = app::onedeep_mergesort(data, p);
        if (!std::is_sorted(out.begin(), out.end())) std::abort();
      });
  std::printf("\n[traditional mergesort, n=%zu]", n);
  const auto measured_trad = bench::measure_speedups({1, 2, 4}, 3, [&](int p) {
    auto out = app::traditional_mergesort(data, p);
    if (!std::is_sorted(out.begin(), out.end())) std::abort();
  });

  // --- modeled at paper scale -----------------------------------------------
  const auto machine = perf::intel_delta();
  const perf::SortWorkload w;  // 2^20 integers
  std::vector<int> procs;
  for (int p = 1; p <= 64; p *= 2) procs.push_back(p);
  procs.insert(procs.end(), {3, 6, 12, 24, 48});
  std::sort(procs.begin(), procs.end());
  const auto onedeep = perf::fig6_onedeep(machine, w, procs);
  const auto trad = perf::fig6_traditional(machine, w, procs);

  bench::print_model_table("Model: one-deep mergesort on " + machine.name + ":",
                           onedeep);
  bench::print_model_table("Model: traditional mergesort on " + machine.name + ":",
                           trad);

  std::printf("\n%s\n",
              plot::render_speedup(
                  "Fig 6 (modeled): mergesort speedups on the Intel Delta",
                  {bench::to_series("one-deep mergesort", 'o', onedeep),
                   bench::to_series("traditional mergesort", 't', trad)},
                  64.0, 64.0)
                  .c_str());

  // --- shape verdicts --------------------------------------------------------
  std::printf("Shape vs paper:\n");
  bool ok = true;
  ok &= bench::verdict("one-deep beats traditional at every modeled P >= 2",
                       [&] {
                         for (const auto& pt : onedeep) {
                           if (pt.procs >= 2 &&
                               pt.speedup <= bench::at(trad, pt.procs)) {
                             return false;
                           }
                         }
                         return true;
                       }());
  ok &= bench::verdict("traditional saturates (gain 32->64 below 30%)",
                       bench::at(trad, 64) / bench::at(trad, 32) < 1.3);
  ok &= bench::verdict("one-deep keeps scaling (S(64) > 35)",
                       bench::at(onedeep, 64) > 35.0);
  ok &= bench::verdict(
      "measured: one-deep >= traditional at P=2 on this host",
      bench::at(measured_onedeep, 2) >= 0.9 * bench::at(measured_trad, 2));
  return ok ? 0 : 1;
}
