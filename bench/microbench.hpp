// bench/microbench.hpp
//
// Minimal self-contained micro-benchmark harness: steady_clock timing
// (best-of-R repetitions), a fixed-width console table, and a
// machine-readable JSON dump so successive PRs can compare numbers
// (BENCH_substrate.json et al.). No external dependencies — benchmarks
// build everywhere the library builds.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace ppa::microbench {

/// One measured configuration: a benchmark name plus numeric fields
/// ("p", "bytes", "seconds_per_op", ...). Fields keep insertion order.
struct Result {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;

  Result& set(const std::string& key, double value) {
    for (auto& [k, v] : fields) {
      if (k == key) {
        v = value;
        return *this;
      }
    }
    fields.emplace_back(key, value);
    return *this;
  }
  [[nodiscard]] double get(const std::string& key, double fallback = 0.0) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return fallback;
  }
};

/// Best-of-`reps` wall time of `fn()`, in seconds.
inline double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// True when the caller should run a reduced configuration (CI smoke).
inline bool smoke_mode() {
  const char* v = std::getenv("PPA_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Collects results, prints rows as they arrive, writes JSON at the end.
class Reporter {
 public:
  explicit Reporter(std::string suite) : suite_(std::move(suite)) {
    std::printf("%-40s %14s %12s %12s\n", "benchmark", "ns/op", "MB/s", "extra");
  }

  void add(Result r) {
    const double sec = r.get("seconds_per_op");
    const double mbps = r.get("mb_per_s");
    std::string extra;
    for (const auto& [k, v] : r.fields) {
      if (k == "seconds_per_op" || k == "mb_per_s" || k == "p" || k == "bytes") continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%s=%.3g", extra.empty() ? "" : " ",
                    k.c_str(), v);
      extra += buf;
    }
    std::string label = r.name;
    const double p = r.get("p", -1.0);
    const double bytes = r.get("bytes", -1.0);
    // Appended piece by piece: `label += "/p" + std::to_string(...)` draws
    // GCC 12's -Wrestrict false positive in every including TU.
    if (p >= 0) {
      label += "/p";
      label += std::to_string(static_cast<long>(p));
    }
    if (bytes >= 0) {
      label += '/';
      label += std::to_string(static_cast<long>(bytes));
      label += 'B';
    }
    std::printf("%-40s %14.1f %12.1f %12s\n", label.c_str(), sec * 1e9, mbps,
                extra.c_str());
    std::fflush(stdout);
    results_.push_back(std::move(r));
  }

  /// Write all collected results as a JSON array.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"suite\": \"%s\",\n  \"results\": [\n", suite_.c_str());
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      std::fprintf(f, "    {\"name\": \"%s\"", r.name.c_str());
      for (const auto& [k, v] : r.fields) {
        std::fprintf(f, ", \"%s\": %.9g", k.c_str(), v);
      }
      std::fprintf(f, "}%s\n", i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %zu results to %s\n", results_.size(), path.c_str());
    return true;
  }

  [[nodiscard]] const std::vector<Result>& results() const { return results_; }

 private:
  std::string suite_;
  std::vector<Result> results_;
};

}  // namespace ppa::microbench
