// Ablation for the typed composition layer (core/compose.hpp): what does
// expressing an application as a checked combinator graph cost, and what
// does stage-hosted job scheduling buy?
//
//   overhead — the same ingest | transform | engine_job(np) | collect
//              work run as a composed graph (run_sequential) vs a
//              hand-wired loop issuing identical spmd_run calls. The only
//              delta is combinator plumbing; the gate is <= 5% overhead.
//   plumbing — pure graph bookkeeping with no hosted stage: per-item cost
//              of source | stage | stage | sink vs a bare loop, in ns.
//   overlap  — a two-hosted-stage graph with latency-bound bodies on the
//              scheduler driver (pipeline threads keep several items in
//              flight, so the np-wide jobs of adjacent items space-share
//              the warm engine) vs serializing every phase of every item
//              through the same scheduler one at a time.
//
// Results go to BENCH_compose.json for cross-PR comparison. Correctness
// (composed outputs must equal the hand-wired outputs exactly) always
// gates the exit code; the <=5% overhead and overlap-wins verdicts gate
// it only in full mode. PPA_BENCH_SMOKE=1 selects a reduced configuration.
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "core/compose.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa;

/// Hosted body for the overhead A/B: a deterministic compute kernel plus a
/// reduction, so both sides do identical real work per item.
double compute_body(mpl::Process& p, long item, int iters) {
  double acc = static_cast<double>(item + p.rank());
  for (int i = 0; i < iters; ++i) {
    acc = acc * 1.0000001 + 0.5;
  }
  return p.allreduce(acc, [](double a, double b) { return a + b; });
}

/// Latency-bound hosted body for the overlap A/B: rounds x (1 ms of
/// "service time", then a barrier). Wall-clock is dominated by waiting, so
/// overlapping adjacent items' jobs on the warm engine wins even on a
/// single-core host.
void sleepy_body(mpl::Process& p, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    p.barrier();
  }
}

}  // namespace

int main() {
  bench::print_header("Ablation: typed archetype composition",
                      "combinator-graph overhead vs hand-wired loops, and "
                      "stage-hosted job overlap vs serialized phases");

  const bool smoke = microbench::smoke_mode();
  microbench::Reporter reporter("compose");
  bool ok = true;

  // --- overhead: composed graph vs hand-wired loop, identical spmd work ----
  const long items = smoke ? 8 : 48;
  const int np = 2;
  const int iters = smoke ? 2000 : 20000;
  const int reps = smoke ? 2 : 5;

  std::vector<double> composed_out;
  auto make_graph = [&] {
    composed_out.clear();
    long next = 0;
    return compose::source([next, items]() mutable -> std::optional<long> {
             return next < items ? std::optional<long>(next++) : std::nullopt;
           }) |
           compose::stage([](long v) { return 3 * v + 1; }) |
           compose::engine_job(np, [iters](mpl::Process& p, const long& v) {
             return compute_body(p, v, iters);
           }) |
           compose::sink([&composed_out](double v) { composed_out.push_back(v); });
  };
  const double t_composed = microbench::time_best_of(reps, [&] {
    auto g = make_graph();
    g.run_sequential();
  });

  std::vector<double> hand_out;
  const double t_hand = microbench::time_best_of(reps, [&] {
    hand_out.clear();
    for (long i = 0; i < items; ++i) {
      const long v = 3 * i + 1;
      double result = 0.0;
      mpl::spmd_run(np, [&](mpl::Process& p) {
        const double r = compute_body(p, v, iters);
        if (p.rank() == 0) result = r;
      });
      hand_out.push_back(result);
    }
  });
  const double overhead_ratio = t_composed / t_hand;
  std::printf("\noverhead, %ld items x np=%d hosted compute:\n"
              "  composed %.4f s   hand-wired %.4f s   ratio %.3f\n",
              items, np, t_composed, t_hand, overhead_ratio);
  microbench::Result rov{"compose/overhead", {}};
  rov.set("items", static_cast<double>(items))
      .set("np", np)
      .set("composed_seconds", t_composed)
      .set("handwired_seconds", t_hand)
      .set("overhead_ratio", overhead_ratio);
  reporter.add(std::move(rov));
  ok &= bench::verdict("composed output equals hand-wired output exactly",
                       composed_out == hand_out);

  // --- plumbing: graph bookkeeping with no hosted stage, per item ----------
  const long plumb_items = smoke ? 20000 : 200000;
  long composed_sum = 0;
  const double t_plumb_graph = microbench::time_best_of(reps, [&] {
    composed_sum = 0;
    long next = 0;
    auto g = compose::source([next, plumb_items]() mutable -> std::optional<long> {
               return next < plumb_items ? std::optional<long>(next++)
                                         : std::nullopt;
             }) |
             compose::stage([](long v) { return 2 * v; }) |
             compose::stage([](long v) { return v + 1; }) |
             compose::sink([&composed_sum](long v) { composed_sum += v; });
    g.run_sequential();
  });
  long hand_sum = 0;
  const double t_plumb_hand = microbench::time_best_of(reps, [&] {
    hand_sum = 0;
    for (long i = 0; i < plumb_items; ++i) {
      hand_sum += 2 * i + 1;
    }
  });
  const double plumb_ns =
      (t_plumb_graph - t_plumb_hand) / static_cast<double>(plumb_items) * 1e9;
  std::printf("\nplumbing, %ld items through source|stage|stage|sink:\n"
              "  graph %.4f s   bare loop %.4f s   ~%.1f ns/item bookkeeping\n",
              plumb_items, t_plumb_graph, t_plumb_hand, plumb_ns);
  microbench::Result rpl{"compose/plumbing", {}};
  rpl.set("items", static_cast<double>(plumb_items))
      .set("graph_seconds", t_plumb_graph)
      .set("loop_seconds", t_plumb_hand)
      .set("ns_per_item", plumb_ns);
  reporter.add(std::move(rpl));
  ok &= bench::verdict("plumbing graph computed the right sum",
                       composed_sum == hand_sum);

  // --- overlap: stage-hosted jobs space-sharing vs serialized phases -------
  const long ov_items = smoke ? 4 : 8;
  const int ov_rounds = smoke ? 5 : 15;
  const int ov_np = 2;
  auto engine = std::make_shared<mpl::Engine>(2 * ov_np);
  auto sched = std::make_shared<mpl::Scheduler>(engine);
  const int ov_reps = smoke ? 1 : 3;

  long composed_seen = 0;
  const double t_overlap = microbench::time_best_of(ov_reps, [&] {
    composed_seen = 0;
    long next = 0;
    auto g = compose::source([next, ov_items]() mutable -> std::optional<long> {
               return next < ov_items ? std::optional<long>(next++)
                                      : std::nullopt;
             }) |
             compose::engine_job(ov_np, [ov_rounds](mpl::Process& p, const long& v) {
               sleepy_body(p, ov_rounds);
               return v;
             }) |
             compose::engine_job(ov_np, [ov_rounds](mpl::Process& p, const long& v) {
               sleepy_body(p, ov_rounds);
               return v + 1;
             }) |
             compose::sink([&composed_seen](long v) { composed_seen += v; });
    // One item per batch: with the default batch the whole stream would
    // cross each edge as one batch and the two stages could never overlap.
    (void)g.run_scheduler(*sched, compose::Config{.batch = 1});
  });

  long serial_seen = 0;
  const double t_serialized = microbench::time_best_of(ov_reps, [&] {
    serial_seen = 0;
    for (long i = 0; i < ov_items; ++i) {
      sched->run(ov_np, [&](mpl::Process& p) { sleepy_body(p, ov_rounds); });
      sched->run(ov_np, [&](mpl::Process& p) { sleepy_body(p, ov_rounds); });
      serial_seen += i + 1;
    }
  });
  const double overlap_speedup = t_serialized / t_overlap;
  std::printf("\noverlap, %ld items x 2 hosted np=%d stages (%d x 1 ms rounds) "
              "on width %d:\n"
              "  serialized phases %.4f s   composed graph %.4f s   %.2fx\n",
              ov_items, ov_np, ov_rounds, 2 * ov_np, t_serialized, t_overlap,
              overlap_speedup);
  microbench::Result rol{"compose/overlap", {}};
  rol.set("items", static_cast<double>(ov_items))
      .set("np", ov_np)
      .set("rounds", ov_rounds)
      .set("composed_seconds", t_overlap)
      .set("serialized_seconds", t_serialized)
      .set("speedup_composed_vs_serialized", overlap_speedup);
  reporter.add(std::move(rol));
  ok &= bench::verdict("overlap graph streamed every item",
                       composed_seen == serial_seen);

  microbench::Result summary{"compose/summary", {}};
  summary.set("overhead_ratio", overhead_ratio)
      .set("plumbing_ns_per_item", plumb_ns)
      .set("overlap_speedup", overlap_speedup)
      .set("smoke", smoke ? 1.0 : 0.0);
  reporter.add(std::move(summary));
  reporter.write_json("BENCH_compose.json");

  std::printf("\nShape verdicts:\n");
  const bool cheap = bench::verdict(
      "composed graph within 5% of hand-wired (ratio <= 1.05)",
      overhead_ratio <= 1.05);
  const bool overlaps = bench::verdict(
      "stage-hosted jobs beat serialized phases on the scheduler driver",
      overlap_speedup > 1.0);
  if (!smoke) ok &= cheap && overlaps;
  return ok ? 0 : 1;
}
