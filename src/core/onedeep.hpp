// ppa/core/onedeep.hpp
//
// The one-deep divide-and-conquer archetype (paper section 3).
//
// Computational pattern: a single level of split / solve / merge over data
// block-distributed among N processes:
//
//   split phase (may be degenerate):
//     1. each process samples its local data           -> split_sample()
//     2. split parameters are computed from all samples -> split_params()
//     3. each process partitions its local data into N parts -> split_partition()
//     4. all-to-all exchange; process j keeps the parts destined for it
//   solve phase:
//     5. each process solves its subproblem locally     -> local_solve()
//   merge phase (may be degenerate):
//     6. each process samples its local solution        -> merge_sample()
//     7. merge parameters ("splitters") from all samples -> merge_params()
//     8. each process repartitions its local solution   -> repartition()
//     9. all-to-all exchange
//    10. each process merges the parts it received      -> local_merge()
//
// The final solution is the concatenation of the per-process results.
//
// A *spec* type provides the application-specific slots; degenerate phases
// are expressed simply by omitting the corresponding members (detected with
// `requires`-expressions). The skeleton supplies two drivers with identical
// semantics for deterministic specs:
//
//   run_sequential()  — executes the dataflow with plain loops (the paper's
//                       "debug in the sequential domain" mode), and
//   run_process()     — the SPMD per-process body over ppa::mpl, with the
//                       communication structure the archetype implies:
//                       allgather (or gather+broadcast) for parameter
//                       computation and all-to-all for redistribution.
//
// Substrate costs (see mpl/process.hpp): the parameter allgather is
// recursive-doubling/ring (no gather-to-root bottleneck), parameter
// broadcasts fan out one shared buffer, and the all-to-all adopts each
// outgoing part's storage as the message payload — so the redistribution
// phases perform one serialization copy per part end to end.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "mpl/process.hpp"
#include "mpl/scheduler.hpp"
#include "support/partition.hpp"

namespace ppa::onedeep {

/// How split/merge parameters are computed from the per-process samples
/// (paper section 3.2: "either ... one master process perform[s] the
/// computation and make[s] its results available to the other processes, or
/// ... all processes perform the same computation concurrently").
enum class ParamStrategy {
  kReplicated,     ///< allgather samples; every process computes parameters
  kRootBroadcast,  ///< gather to root; root computes; broadcast parameters
};

/// Detects a non-degenerate split phase.
template <typename S>
concept HasSplitPhase = requires(S s, const std::vector<typename S::value_type>& local,
                                 int nparts) {
  typename S::split_sample_type;
  typename S::split_param_type;
  { s.split_sample(local) } -> std::same_as<std::vector<typename S::split_sample_type>>;
  {
    s.split_params(std::declval<const std::vector<typename S::split_sample_type>&>(),
                   nparts)
  } -> std::same_as<std::vector<typename S::split_param_type>>;
  {
    s.split_partition(std::declval<std::vector<typename S::value_type>>(),
                      std::declval<const std::vector<typename S::split_param_type>&>(),
                      nparts)
  } -> std::same_as<std::vector<std::vector<typename S::value_type>>>;
};

/// Detects a non-degenerate merge phase.
template <typename S>
concept HasMergePhase = requires(S s, const std::vector<typename S::value_type>& local,
                                 int nparts) {
  typename S::merge_sample_type;
  typename S::merge_param_type;
  { s.merge_sample(local) } -> std::same_as<std::vector<typename S::merge_sample_type>>;
  {
    s.merge_params(std::declval<const std::vector<typename S::merge_sample_type>&>(),
                   nparts)
  } -> std::same_as<std::vector<typename S::merge_param_type>>;
  {
    s.repartition(std::declval<std::vector<typename S::value_type>>(),
                  std::declval<const std::vector<typename S::merge_param_type>&>(),
                  nparts)
  } -> std::same_as<std::vector<std::vector<typename S::value_type>>>;
  {
    s.local_merge(std::declval<std::vector<std::vector<typename S::value_type>>>())
  } -> std::same_as<std::vector<typename S::value_type>>;
};

/// Minimum requirements on a one-deep spec: a wire-able value type and a
/// local solve. At least one of the split/merge phases is normally present,
/// but a pure "embarrassingly parallel" spec (both degenerate) is legal.
template <typename S>
concept Spec = mpl::Wire<typename S::value_type> &&
    requires(S s, std::vector<typename S::value_type>& local) {
      { s.local_solve(local) };
    };

namespace detail {

/// Sequential all-to-all: parts[i][j] is process i's part destined for
/// process j; result[j][i] is what process j received from process i.
template <typename T>
std::vector<std::vector<std::vector<T>>> transpose_exchange(
    std::vector<std::vector<std::vector<T>>> parts) {
  const std::size_t n = parts.size();
  std::vector<std::vector<std::vector<T>>> received(n);
  for (auto& r : received) r.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    assert(parts[i].size() == n);
    for (std::size_t j = 0; j < n; ++j) {
      received[j][i] = std::move(parts[i][j]);
    }
  }
  return received;
}

template <typename T>
std::vector<T> concat_parts(std::vector<std::vector<T>> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  // Reuse the largest part's storage as the destination when it is the
  // first one — the common case after an all-to-all where one rank keeps
  // most of its own data — to avoid an extra O(n) allocation+copy.
  std::vector<T> out;
  if (!parts.empty() && parts.front().capacity() >= total) {
    out = std::move(parts.front());
    parts.front().clear();
    out.reserve(total);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      out.insert(out.end(), parts[i].begin(), parts[i].end());
    }
    return out;
  }
  out.reserve(total);
  for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Compute parameters in the SPMD setting under the chosen strategy.
template <typename Sample, typename Param, typename Compute>
std::vector<Param> spmd_params(mpl::Process& p, const std::vector<Sample>& samples,
                               ParamStrategy strategy, Compute&& compute) {
  if (strategy == ParamStrategy::kRootBroadcast) {
    auto all = p.gather(std::span<const Sample>(samples), 0);
    std::vector<Param> params;
    if (p.rank() == 0) params = compute(all, p.size());
    p.broadcast(params, 0);
    return params;
  }
  auto all = p.allgather(std::span<const Sample>(samples));
  return compute(all, p.size());
}

}  // namespace detail

/// Sequential driver: `locals` is the initial block distribution of the
/// problem data over N virtual processes (locals.size() == N); the result is
/// the final distribution. Mirrors the paper's version-1 algorithms where
/// every parfor is replaced by a for loop — deterministic specs produce
/// results identical to run_process().
template <Spec S>
std::vector<std::vector<typename S::value_type>> run_sequential(
    S& spec, std::vector<std::vector<typename S::value_type>> locals) {
  using T = typename S::value_type;
  const std::size_t n = locals.size();
  assert(n > 0);
  const int nparts = static_cast<int>(n);

  // --- split phase ---------------------------------------------------------
  if constexpr (HasSplitPhase<S>) {
    using Sample = typename S::split_sample_type;
    std::vector<Sample> all_samples;
    for (const auto& local : locals) {
      const auto s = spec.split_sample(local);
      all_samples.insert(all_samples.end(), s.begin(), s.end());
    }
    const auto params = spec.split_params(all_samples, nparts);
    std::vector<std::vector<std::vector<T>>> parts;
    parts.reserve(n);
    for (auto& local : locals) {
      parts.push_back(spec.split_partition(std::move(local), params, nparts));
    }
    auto received = detail::transpose_exchange(std::move(parts));
    for (std::size_t i = 0; i < n; ++i) {
      locals[i] = detail::concat_parts(std::move(received[i]));
    }
  }

  // --- solve phase -----------------------------------------------------------
  for (auto& local : locals) spec.local_solve(local);

  // --- merge phase -----------------------------------------------------------
  if constexpr (HasMergePhase<S>) {
    using Sample = typename S::merge_sample_type;
    std::vector<Sample> all_samples;
    for (const auto& local : locals) {
      const auto s = spec.merge_sample(local);
      all_samples.insert(all_samples.end(), s.begin(), s.end());
    }
    const auto params = spec.merge_params(all_samples, nparts);
    std::vector<std::vector<std::vector<T>>> parts;
    parts.reserve(n);
    for (auto& local : locals) {
      parts.push_back(spec.repartition(std::move(local), params, nparts));
    }
    auto received = detail::transpose_exchange(std::move(parts));
    for (std::size_t i = 0; i < n; ++i) {
      locals[i] = spec.local_merge(std::move(received[i]));
    }
  }
  return locals;
}

/// SPMD per-process driver: the body each rank executes. `local` is this
/// rank's block of the problem data; the return value is this rank's block
/// of the solution. The communication structure is exactly the archetype's:
/// parameter computation (allgather or gather+broadcast) and all-to-all
/// redistribution, once per non-degenerate phase.
template <Spec S>
std::vector<typename S::value_type> run_process(
    S& spec, mpl::Process& p, std::vector<typename S::value_type> local,
    ParamStrategy strategy = ParamStrategy::kReplicated) {
  const int nparts = p.size();

  if constexpr (HasSplitPhase<S>) {
    using Sample = typename S::split_sample_type;
    using Param = typename S::split_param_type;
    const auto samples = spec.split_sample(local);
    const auto params = detail::spmd_params<Sample, Param>(
        p, samples, strategy,
        [&spec](const std::vector<Sample>& all, int np) {
          return spec.split_params(all, np);
        });
    auto parts = spec.split_partition(std::move(local), params, nparts);
    auto received = p.alltoall(std::move(parts));
    local = detail::concat_parts(std::move(received));
  }

  spec.local_solve(local);

  if constexpr (HasMergePhase<S>) {
    using Sample = typename S::merge_sample_type;
    using Param = typename S::merge_param_type;
    const auto samples = spec.merge_sample(local);
    const auto params = detail::spmd_params<Sample, Param>(
        p, samples, strategy,
        [&spec](const std::vector<Sample>& all, int np) {
          return spec.merge_params(all, np);
        });
    auto parts = spec.repartition(std::move(local), params, nparts);
    auto received = p.alltoall(std::move(parts));
    local = spec.local_merge(std::move(received));
  }
  return local;
}

/// Whole-problem driver through a space-sharing Scheduler
/// (mpl/scheduler.hpp): run_process as one warm SPMD job per call. `locals`
/// is the initial block distribution (its size sets the job width, which
/// must fit scheduler.width()); the result is the final distribution.
/// Narrow computations submitted from several threads run side by side on
/// disjoint rank sets, and a stream of them reuses the engine's rank
/// threads and mailbox lanes instead of respawning per call.
template <Spec S>
std::vector<std::vector<typename S::value_type>> run_engine(
    S& spec, mpl::Scheduler& scheduler,
    std::vector<std::vector<typename S::value_type>> locals,
    ParamStrategy strategy = ParamStrategy::kReplicated) {
  const int nprocs = static_cast<int>(locals.size());
  scheduler.run(nprocs, [&](mpl::Process& p) {
    auto& slot = locals[static_cast<std::size_t>(p.rank())];
    slot = run_process(spec, p, std::move(slot), strategy);
  });
  return locals;
}

/// Block-distribute `data` over `nparts` processes (the archetype's default
/// initial distribution).
template <typename T>
std::vector<std::vector<T>> block_distribute(const std::vector<T>& data,
                                             std::size_t nparts) {
  std::vector<std::vector<T>> locals(nparts);
  for (std::size_t i = 0; i < nparts; ++i) {
    const Range r = block_range(data.size(), nparts, i);
    locals[i].assign(data.begin() + static_cast<std::ptrdiff_t>(r.lo),
                     data.begin() + static_cast<std::ptrdiff_t>(r.hi));
  }
  return locals;
}

/// Concatenate a distribution back into one vector.
template <typename T>
std::vector<T> gather_blocks(std::vector<std::vector<T>> locals) {
  return detail::concat_parts(std::move(locals));
}

}  // namespace ppa::onedeep
