// ppa/core/branch_and_bound.hpp
//
// A *nondeterministic* archetype: parallel branch and bound. The paper's
// future-work list calls for exactly this ("some problems are better suited
// to nondeterministic archetypes — for example branch and bound — so our
// library of archetypes should include such archetypes as well", section 8).
//
// Computational pattern (minimization):
//   * a problem node either is a leaf (with a known value) or can be
//     branched into subproblems;
//   * every node has a lower bound on the best value reachable beneath it;
//   * nodes whose bound is >= the incumbent (best known value) are pruned.
//
// Three drivers, all returning the same (unique) optimum:
//
//   solve_sequential  one thread, one pool — the debugging mode.
//
//   solve_tasks       shared-memory, on the work-stealing runtime
//                     (core/task.hpp): per-worker node pools, idle workers
//                     steal the *shallowest* half of a victim's pool (the
//                     nodes nearest the root, i.e. the largest subtrees),
//                     and the incumbent is a process-wide atomic that every
//                     worker sharpens with a CAS-min and prunes against.
//                     The search order is nondeterministic; the optimum is
//                     not. Spec methods are called concurrently and must
//                     not mutate the spec.
//
//   solve_process     SPMD message-passing: deterministic replicated
//                     seeding, then synchronous rounds. Each round every
//                     rank expands up to `chunk` nodes depth-first, then
//                     ONE allreduce combines {incumbent (min), total
//                     frontier (sum), smallest per-rank frontier (min)} —
//                     incumbent sharing, termination, and the rebalancing
//                     trigger ride the same collective. When some rank has
//                     drained while work remains, a rebalancing round
//                     follows: every rank contributes the shallow half of
//                     its pool (bounded by `chunk`) to an allgather and the
//                     combined surplus is dealt back block-cyclically, so
//                     drained ranks stop idling through rounds they cannot
//                     contribute to. Rebalancing requires the node type to
//                     be wire-able (memcpy-safe) and is skipped otherwise.
//
// Communication structure of solve_process: one allreduce per round, plus
// one allgather per rebalancing round — nothing else. The collective
// discipline (all ranks execute the same collective sequence) is preserved
// even though the *work* each rank does is nondeterministic in size: every
// decision that affects the sequence is computed from allreduced values.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/task.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/process.hpp"

namespace ppa::bnb {

/// A branch-and-bound specification for minimization.
///   using node_type = ...;                         search-tree node
///   double bound(const node_type&)                 lower bound below node
///   bool is_leaf(const node_type&)                 complete solution?
///   double leaf_value(const node_type&)            value of a leaf
///   std::vector<node_type> branch(const node_type&)  children
template <typename S>
concept Spec = requires(S s, const typename S::node_type& n) {
  { s.bound(n) } -> std::convertible_to<double>;
  { s.is_leaf(n) } -> std::convertible_to<bool>;
  { s.leaf_value(n) } -> std::convertible_to<double>;
  { s.branch(n) } -> std::same_as<std::vector<typename S::node_type>>;
};

inline constexpr double kInfinity = 1e300;

/// Per-run statistics of solve_process (instrumentation/testing).
struct ProcessStats {
  std::size_t rounds = 0;      ///< synchronous rounds (= allreduces per rank)
  std::size_t rebalances = 0;  ///< rebalancing rounds (= allgathers per rank)
};

namespace detail {

/// Expand up to `budget` nodes of `pool` (LIFO) against `incumbent`;
/// returns the number of nodes expanded.
template <Spec S>
std::size_t expand_some(S& spec, std::vector<typename S::node_type>& pool,
                        double& incumbent, std::size_t budget) {
  std::size_t expanded = 0;
  while (!pool.empty() && expanded < budget) {
    auto node = std::move(pool.back());
    pool.pop_back();
    ++expanded;
    if (spec.bound(node) >= incumbent) continue;  // pruned
    if (spec.is_leaf(node)) {
      incumbent = std::min(incumbent, spec.leaf_value(node));
      continue;
    }
    for (auto& child : spec.branch(node)) {
      if (spec.bound(child) < incumbent) pool.push_back(std::move(child));
    }
  }
  return expanded;
}

/// Deterministic breadth-first seeding shared by the parallel drivers:
/// expand the root level by level until the frontier holds at least
/// `target` nodes (or the tree is exhausted), folding leaves into
/// `incumbent` along the way.
template <Spec S>
std::vector<typename S::node_type> seed_frontier(S& spec,
                                                 typename S::node_type root,
                                                 std::size_t target,
                                                 double& incumbent) {
  std::vector<typename S::node_type> frontier;
  frontier.push_back(std::move(root));
  while (frontier.size() < target && !frontier.empty()) {
    // One BFS level; leaves encountered update the incumbent.
    std::vector<typename S::node_type> next;
    bool expanded_any = false;
    for (auto& node : frontier) {
      if (spec.bound(node) >= incumbent) continue;
      if (spec.is_leaf(node)) {
        incumbent = std::min(incumbent, spec.leaf_value(node));
        continue;
      }
      expanded_any = true;
      for (auto& child : spec.branch(node)) {
        if (spec.bound(child) < incumbent) next.push_back(std::move(child));
      }
    }
    frontier = std::move(next);
    if (!expanded_any) break;
  }
  return frontier;
}

/// Sharpen an atomic incumbent with a CAS-min.
inline void atomic_min(std::atomic<double>& best, double candidate) {
  double current = best.load(std::memory_order_relaxed);
  while (candidate < current &&
         !best.compare_exchange_weak(current, candidate,
                                     std::memory_order_acq_rel)) {
  }
}

/// The combined per-round word of solve_process: one allreduce carries
/// incumbent sharing, termination, and the rebalancing trigger.
struct RoundStats {
  double incumbent;
  std::uint64_t remaining;  ///< sum of per-rank frontier sizes
  std::uint64_t min_pool;   ///< smallest per-rank frontier size
};
static_assert(mpl::Wire<RoundStats>);

struct RoundStatsOp {
  RoundStats operator()(const RoundStats& a, const RoundStats& b) const {
    return {std::min(a.incumbent, b.incumbent), a.remaining + b.remaining,
            std::min(a.min_pool, b.min_pool)};
  }
};

}  // namespace detail

/// Sequential driver: exact minimum below `root`.
template <Spec S>
double solve_sequential(S& spec, typename S::node_type root) {
  std::vector<typename S::node_type> pool;
  pool.push_back(std::move(root));
  double incumbent = kInfinity;
  while (!pool.empty()) {
    detail::expand_some(spec, pool, incumbent, pool.size() + 16);
  }
  return incumbent;
}

/// Shared-memory multi-worker driver on the work-stealing runtime: exact
/// minimum below `root`, computed by `workers` cooperating workers
/// (default: pool workers + the calling thread). Spec methods are invoked
/// concurrently from several threads and must not mutate shared state.
/// If a Spec method throws, the search aborts: remaining nodes are drained
/// unexpanded and the first exception is rethrown from this call.
template <Spec S>
double solve_tasks(S& spec, typename S::node_type root, int workers = 0,
                   std::size_t chunk = 256, std::size_t seed_factor = 8) {
  using Node = typename S::node_type;
  if (chunk == 0) chunk = 1;  // a zero budget would take/expand nothing
  auto& pool = task::ThreadPool::instance();
  const auto nw = static_cast<std::size_t>(
      workers > 0 ? workers : pool.workers() + 1);

  double seed_incumbent = kInfinity;
  std::vector<Node> frontier =
      detail::seed_frontier(spec, std::move(root), nw * seed_factor,
                            seed_incumbent);
  if (nw <= 1 || frontier.size() <= 1) {
    // Degenerate: finish on this thread.
    double incumbent = seed_incumbent;
    while (!frontier.empty()) {
      detail::expand_some(spec, frontier, incumbent, frontier.size() + 16);
    }
    return incumbent;
  }

  /// One worker's shareable pool. Owners take from the back (deep nodes,
  /// LIFO = depth-first); thieves take from the front (shallow nodes =
  /// large subtrees) — the same discipline as the task deques.
  struct WorkerPool {
    std::mutex mu;
    std::vector<Node> nodes;
  };
  std::vector<WorkerPool> pools(nw);
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    pools[i % nw].nodes.push_back(std::move(frontier[i]));
  }

  std::atomic<double> best{seed_incumbent};
  // Every live node, pooled or privately held, counted exactly once. Taking
  // or returning nodes does not touch the counter; each round applies its
  // net node delta (children produced - nodes consumed) in ONE atomic RMW,
  // so `outstanding == 0` is equivalent to "no node exists anywhere" — a
  // worker mid-round always has its taken nodes still counted, leaving no
  // window in which an idle worker can retire while work is in flight.
  std::atomic<std::int64_t> outstanding{
      static_cast<std::int64_t>(frontier.size())};
  // Set when a Spec method throws: the search result is forfeit (the
  // exception is rethrown from solve_tasks), so the remaining workers
  // discard batches unexpanded — keeping the accounting exact — instead of
  // spinning on nodes the thrower can no longer finish.
  std::atomic<bool> aborted{false};

  const auto worker_body = [&](std::size_t w) {
    std::vector<Node> local;
    int idle_spins = 0;
    for (;;) {
      std::size_t taken = 0;
      {
        WorkerPool& own = pools[w];
        std::lock_guard<std::mutex> lk(own.mu);
        taken = std::min(chunk, own.nodes.size());
        local.insert(local.end(),
                     std::make_move_iterator(own.nodes.end() -
                                             static_cast<std::ptrdiff_t>(taken)),
                     std::make_move_iterator(own.nodes.end()));
        own.nodes.resize(own.nodes.size() - taken);
      }
      if (taken == 0) {
        // Steal the shallow half of the first victim with work.
        for (std::size_t i = 1; i < nw && taken == 0; ++i) {
          WorkerPool& victim = pools[(w + i) % nw];
          std::lock_guard<std::mutex> lk(victim.mu);
          if (victim.nodes.empty()) continue;
          taken = std::max<std::size_t>(1, victim.nodes.size() / 2);
          local.insert(local.end(),
                       std::make_move_iterator(victim.nodes.begin()),
                       std::make_move_iterator(
                           victim.nodes.begin() +
                           static_cast<std::ptrdiff_t>(taken)));
          victim.nodes.erase(victim.nodes.begin(),
                             victim.nodes.begin() +
                                 static_cast<std::ptrdiff_t>(taken));
        }
      }
      if (taken == 0) {
        if (outstanding.load() == 0) return;  // no node exists anywhere
        if (++idle_spins < 64) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      idle_spins = 0;

      if (aborted.load(std::memory_order_acquire)) {
        // Drain mode: discard the batch unexpanded, keep the count exact.
        local.clear();
        outstanding.fetch_sub(static_cast<std::int64_t>(taken));
        continue;
      }
      try {
        double incumbent = best.load(std::memory_order_acquire);
        detail::expand_some(spec, local, incumbent, chunk);
        detail::atomic_min(best, incumbent);
      } catch (...) {
        aborted.store(true, std::memory_order_release);
        local.clear();
        outstanding.fetch_sub(static_cast<std::int64_t>(taken));
        throw;  // forked workers: captured by the TaskGroup; worker 0: direct
      }

      if (!local.empty()) {
        WorkerPool& own = pools[w];
        std::lock_guard<std::mutex> lk(own.mu);
        own.nodes.insert(own.nodes.end(),
                         std::make_move_iterator(local.begin()),
                         std::make_move_iterator(local.end()));
      }
      // Net delta for the whole round (leftovers were already made
      // stealable above; the counter keeps them — and the consumed nodes —
      // accounted until this single RMW lands).
      outstanding.fetch_add(static_cast<std::int64_t>(local.size()) -
                            static_cast<std::int64_t>(taken));
      local.clear();
    }
  };

  task::TaskGroup group(pool);
  for (std::size_t w = 1; w < nw; ++w) {
    group.run([&worker_body, w] { worker_body(w); });
  }
  worker_body(0);
  group.wait();
  return best.load(std::memory_order_acquire);
}

/// SPMD per-process driver: every rank returns the global minimum.
/// `chunk` bounds the work per synchronization round; `seed_factor` scales
/// the deterministic initial decomposition. Pass `stats` to observe the
/// round/rebalance counts.
template <Spec S>
double solve_process(S& spec, mpl::Process& p, typename S::node_type root,
                     std::size_t chunk = 512, std::size_t seed_factor = 4,
                     ProcessStats* stats = nullptr) {
  using Node = typename S::node_type;
  if (chunk == 0) chunk = 1;  // a zero budget would never drain the pools
  const auto np = static_cast<std::size_t>(p.size());

  // --- deterministic seeding (replicated computation) -----------------------
  double incumbent = kInfinity;
  std::vector<Node> frontier =
      detail::seed_frontier(spec, std::move(root), seed_factor * np, incumbent);

  // Keep this rank's share of the seeded frontier (block-cyclic).
  std::vector<Node> pool;
  for (std::size_t i = static_cast<std::size_t>(p.rank()); i < frontier.size();
       i += np) {
    pool.push_back(std::move(frontier[i]));
  }

  // --- synchronous rounds -----------------------------------------------------
  while (true) {
    detail::expand_some(spec, pool, incumbent, chunk);
    // One allreduce per round carries the sharpened incumbent (min), the
    // total remaining frontier (sum, for termination), and the smallest
    // per-rank frontier (min, the rebalancing trigger) — the collective
    // discipline is one combined collective, not two.
    const detail::RoundStats local{incumbent,
                                   static_cast<std::uint64_t>(pool.size()),
                                   static_cast<std::uint64_t>(pool.size())};
    const detail::RoundStats global = p.allreduce(local, detail::RoundStatsOp{});
    incumbent = global.incumbent;
    if (stats != nullptr) ++stats->rounds;
    if (global.remaining == 0) break;
    // Re-prune the local pool against the sharpened incumbent.
    std::erase_if(pool, [&](const Node& n) {
      return spec.bound(n) >= incumbent;
    });
    if constexpr (mpl::Wire<Node>) {
      if (global.min_pool == 0 && global.remaining >= np) {
        // Rebalancing round: some rank has drained while at least one node
        // per rank remains globally. Every rank contributes the shallow
        // half of its pool (bounded by chunk); the allgathered surplus is
        // dealt back block-cyclically, so each rank receives a near-equal
        // share of the largest subtrees. All ranks reach this point
        // together (the trigger is allreduced state), preserving the
        // collective discipline.
        const std::size_t give = std::min(pool.size() / 2, chunk);
        std::vector<Node> surplus(
            std::make_move_iterator(pool.begin()),
            std::make_move_iterator(pool.begin() +
                                    static_cast<std::ptrdiff_t>(give)));
        pool.erase(pool.begin(),
                   pool.begin() + static_cast<std::ptrdiff_t>(give));
        auto all = p.allgather(std::span<const Node>(surplus));
        for (std::size_t i = static_cast<std::size_t>(p.rank());
             i < all.size(); i += np) {
          pool.push_back(std::move(all[i]));
        }
        if (stats != nullptr) ++stats->rebalances;
      }
    }
  }
  return incumbent;
}

/// Whole-problem driver through a space-sharing Scheduler
/// (mpl/scheduler.hpp): submits solve_process as one job over `nprocs` warm
/// ranks (the scheduler's full width by default) and returns the global
/// minimum. A narrow solve runs concurrently with other narrow jobs on a
/// wide engine, and queues (priority-ordered, bounded) when ranks are busy;
/// a stream of solves reuses rank threads and mailbox lanes instead of
/// respawning per problem.
template <Spec S>
double solve_engine(S& spec, mpl::Scheduler& scheduler, typename S::node_type root,
                    int nprocs = 0, std::size_t chunk = 512,
                    std::size_t seed_factor = 4, ProcessStats* stats = nullptr,
                    mpl::Priority priority = mpl::Priority::kNormal,
                    const mpl::JobOptions& options = {}) {
  if (nprocs <= 0) nprocs = scheduler.width();
  double best = kInfinity;
  ProcessStats job_stats{};
  scheduler.run(
      nprocs,
      [&](mpl::Process& p) {
        ProcessStats local{};
        const double incumbent = solve_process(
            spec, p, root, chunk, seed_factor, stats != nullptr ? &local : nullptr);
        // Every rank computes the same incumbent; rank 0's copy (and stats,
        // which are symmetric across ranks) become the job result.
        if (p.rank() == 0) {
          best = incumbent;
          job_stats = local;
        }
      },
      priority, options);
  if (stats != nullptr) *stats = job_stats;
  return best;
}

}  // namespace ppa::bnb
