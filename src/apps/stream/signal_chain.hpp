// ppa/apps/stream/signal_chain.hpp
//
// Streaming signal-processing consumer of the pipeline archetype: a
// continuous stream of fixed-size sample windows flows through
//
//   source (synthesize window) | stage (Hann taper)
//     | farm(k, FFT → band filter → inverse FFT)   [ordered]
//     | stage (feature extraction) | sink (collect)
//
// The farm stage carries the FFT work — the heavy, embarrassingly parallel
// part — and is *ordered*: the feature stream leaves in window order, so
// every driver (sequential, threaded, SPMD) produces the identical Feature
// sequence, bit for bit (each window's arithmetic is position-independent
// and executed in the same order everywhere).
//
// Windows are synthesized deterministically from (seed, id) alone, so the
// plain-loop oracle regenerates the exact stream without sharing state with
// the pipeline source.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/fft.hpp"
#include "core/pipeline.hpp"
#include "support/rng.hpp"

namespace ppa::app::stream {

/// Samples per window (a radix-2 FFT size).
inline constexpr std::size_t kWindowSamples = 64;

/// One stream item: a window of complex samples plus its position.
struct Window {
  std::uint64_t id = 0;
  std::array<algo::Complex, kWindowSamples> samples{};
};
static_assert(mpl::Wire<Window>);

/// Per-window features extracted by the final stage.
struct Feature {
  std::uint64_t id = 0;
  double energy = 0.0;    ///< sum of |x|^2 over the filtered window
  double peak_mag = 0.0;  ///< largest |x| in the filtered window
  std::uint32_t peak_index = 0;
  std::uint32_t pad = 0;  ///< keep the struct padding-free for Wire transfer
  friend bool operator==(const Feature&, const Feature&) = default;
};
static_assert(mpl::Wire<Feature>);

struct SignalConfig {
  std::size_t windows = 256;  ///< stream length
  int farm_width = 3;         ///< FFT farm replicas
  std::size_t band_lo = 2;    ///< passband [band_lo, band_hi) in bins
  std::size_t band_hi = 12;
  std::uint64_t seed = 2026;
};

/// Synthesize window `id`: two tones whose frequencies step with the window
/// position, plus deterministic noise. Depends only on (cfg.seed, id).
inline Window make_window(const SignalConfig& cfg, std::uint64_t id) {
  Rng rng(cfg.seed ^ (id * 0x9E3779B97F4A7C15ULL));
  const double f1 = 3.0 + static_cast<double>(id % 5);
  const double f2 = 9.0 + static_cast<double>(id % 7);
  constexpr double two_pi = 6.28318530717958647692;
  Window w;
  w.id = id;
  for (std::size_t i = 0; i < kWindowSamples; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(kWindowSamples);
    const double v = std::sin(two_pi * f1 * t) + 0.5 * std::cos(two_pi * f2 * t) +
                     0.1 * (rng.uniform() - 0.5);
    w.samples[i] = algo::Complex(v, 0.0);
  }
  return w;
}

/// Stage 1: Hann taper (reduces spectral leakage before the FFT).
inline Window hann_taper(Window w) {
  constexpr double two_pi = 6.28318530717958647692;
  for (std::size_t i = 0; i < kWindowSamples; ++i) {
    const double taper =
        0.5 * (1.0 - std::cos(two_pi * static_cast<double>(i) /
                              static_cast<double>(kWindowSamples - 1)));
    w.samples[i] *= taper;
  }
  return w;
}

/// Farm stage: FFT, zero every bin outside [band_lo, band_hi), inverse FFT.
inline Window band_filter(const SignalConfig& cfg, Window w) {
  algo::fft(std::span<algo::Complex>(w.samples));
  for (std::size_t k = 0; k < kWindowSamples; ++k) {
    if (k < cfg.band_lo || k >= cfg.band_hi) w.samples[k] = algo::Complex(0.0, 0.0);
  }
  algo::fft(std::span<algo::Complex>(w.samples), /*inverse=*/true);
  return w;
}

/// Stage 3: reduce the filtered window to its features.
inline Feature extract_feature(const Window& w) {
  Feature f;
  f.id = w.id;
  for (std::size_t i = 0; i < kWindowSamples; ++i) {
    const double mag2 = std::norm(w.samples[i]);
    f.energy += mag2;
    if (mag2 > f.peak_mag) {
      f.peak_mag = mag2;
      f.peak_index = static_cast<std::uint32_t>(i);
    }
  }
  f.peak_mag = std::sqrt(f.peak_mag);
  return f;
}

/// The stage graph; `out` receives the feature stream at the sink.
inline auto make_signal_plan(const SignalConfig& cfg, std::vector<Feature>& out) {
  std::uint64_t next = 0;
  return pipeline::source([cfg, next]() mutable -> std::optional<Window> {
           if (next >= cfg.windows) return std::nullopt;
           return make_window(cfg, next++);
         }) |
         pipeline::stage(hann_taper) |
         pipeline::farm(
             cfg.farm_width,
             [cfg] { return [cfg](Window w) { return band_filter(cfg, w); }; },
             pipeline::ordered) |
         pipeline::stage(extract_feature) |
         pipeline::sink([&out](Feature f) { out.push_back(f); });
}

/// Ranks run_process needs: source + taper + farm + extract + sink.
inline int signal_ranks_required(const SignalConfig& cfg) {
  return cfg.farm_width + 4;
}

/// Plain-loop oracle: the same arithmetic with no pipeline machinery.
inline std::vector<Feature> signal_oracle(const SignalConfig& cfg) {
  std::vector<Feature> features;
  features.reserve(cfg.windows);
  for (std::uint64_t id = 0; id < cfg.windows; ++id) {
    features.push_back(
        extract_feature(band_filter(cfg, hann_taper(make_window(cfg, id)))));
  }
  return features;
}

inline std::vector<Feature> signal_sequential(const SignalConfig& cfg) {
  std::vector<Feature> out;
  make_signal_plan(cfg, out).run_sequential();
  return out;
}

inline std::pair<std::vector<Feature>, pipeline::RunStats> signal_threaded(
    const SignalConfig& cfg, pipeline::Config pcfg = {}) {
  std::vector<Feature> out;
  auto stats = make_signal_plan(cfg, out).run_threaded(pcfg);
  return {std::move(out), std::move(stats)};
}

/// SPMD driver body; the sink rank returns the feature stream, every other
/// rank returns empty.
inline std::vector<Feature> signal_process(mpl::Process& p, const SignalConfig& cfg,
                                           pipeline::Config pcfg = {}) {
  std::vector<Feature> out;
  make_signal_plan(cfg, out).run_process(p, pcfg);
  return out;
}

}  // namespace ppa::app::stream
