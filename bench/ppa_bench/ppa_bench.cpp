// ppa_bench — the repository benchmark: four archetype workloads, each run
// in its own process on one warm width-4 engine.
//
//   ppa_bench --workload NAME --seed N --seconds S [--trace FILE] [--check]
//
// Without --trace the run measures the end-to-end metrics; with --trace it
// measures the per-layer metrics and writes its spans to FILE as Chrome
// trace-event JSON (Perfetto opens it). --check shrinks the inputs and
// runs both modes, for a smoke test. Every op is checked against an
// oracle. The run prints each metric as `name value unit`, then one JSON
// record as the last line, and exits nonzero if any op failed.
//
// The seed chooses the generated inputs (problem coefficients, arrival
// times, the job sequence); the library only receives those inputs.
// bench/ppa_bench/README.md lists the workloads and metrics.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef PPA_BENCH_BUILD_TYPE
#define PPA_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ppa_bench;

using WorkloadFn = Outcome (*)(const RunOptions&, const StealMonitor&, SpanLog*);

WorkloadFn find_workload(const std::string& name) {
  if (name == "mesh_latency") return run_mesh_latency;
  if (name == "mesh_bandwidth") return run_mesh_bandwidth;
  if (name == "serve_mixed") return run_serve_mixed;
  if (name == "compose_stream") return run_compose_stream;
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: ppa_bench --workload {mesh_latency|mesh_bandwidth|"
               "serve_mixed|compose_stream} --seed N --seconds S "
               "[--trace FILE] [--check]\n");
  return 2;
}

void print_record(const RunOptions& opt, const Outcome& out) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"traced\": %s, \"check\": %s, \"nproc\": %u, \"engine_width\": %d, "
      "\"load_threads\": %d, \"oversubscribed\": %s, \"build_type\": \"%s\", "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.traced ? "true" : "false", opt.check ? "true" : "false", nproc, kWidth,
      out.load_threads, static_cast<unsigned>(kWidth) > nproc ? "true" : "false",
      PPA_BENCH_BUILD_TYPE, out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  const char* sep = "";
  for (const auto& m : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--check") {
      opt.check = true;
    } else {
      return usage();
    }
  }
  const WorkloadFn run = find_workload(opt.workload);
  if (run == nullptr || !(opt.seconds > 0.0)) return usage();
  // A fixed mmap threshold (glibc's initial 128 KiB) turns off the dynamic
  // one: blocks that size and up are mapped per allocation and returned on
  // free, instead of being cached in whichever thread's arena freed them
  // last. peak_rss_mb then tracks live memory rather than arena caching,
  // which varied it by +-20% from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  SpanLog log;
  const StealMonitor steal;
  const auto origin = Clock::now();
  Outcome out;
  if (opt.check) {
    // Both modes in one process: the end-to-end run, then the traced run.
    out = run(opt, steal, nullptr);
    RunOptions traced = opt;
    traced.traced = true;
    Outcome layers = run(traced, steal, &log);
    out.metrics.insert(out.metrics.end(), layers.metrics.begin(), layers.metrics.end());
    out.attempted += layers.attempted;
    out.failed += layers.failed;
  } else {
    opt.traced = !trace_path.empty();
    out = run(opt, steal, opt.traced ? &log : nullptr);
  }
  // The share of CPU time the hypervisor took over the whole run.
  out.add("host.steal_share", steal.share(origin, Clock::now()), "ratio");
  out.add("fail_ratio",
          out.attempted > 0
              ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
              : 1.0,
          "1");
  if (!trace_path.empty() && !log.write_chrome(trace_path, opt.workload, origin)) {
    std::fprintf(stderr, "ppa_bench: cannot write %s\n", trace_path.c_str());
    return 1;
  }

  for (const auto& m : out.metrics) {
    std::printf("%-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_record(opt, out);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
