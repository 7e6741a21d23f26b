// ppa/core/traditional_dc.hpp
//
// The *traditional* divide-and-conquer archetype (paper section 3.1.1,
// Fig 1): the problem is split recursively, a new process is created at every
// split until a threshold is reached, subproblems are solved concurrently,
// and subsolutions are merged back up the tree. The paper uses this as the
// baseline whose inefficiencies (data inspection at every split, concurrency
// that varies over the run) motivate the one-deep variant; we keep it both as
// that baseline (Fig 6) and as a generally useful skeleton.
//
// The driver, divide_and_conquer, forks onto the process-wide work-stealing
// pool (core/task.hpp): a fork is an O(1) deque push, and idle workers steal
// the oldest (largest) subproblems, so irregular splits load-balance.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/task.hpp"

namespace ppa::dc {

namespace detail {

template <typename Problem, typename Solution, typename IsBase, typename Base,
          typename Split, typename Merge>
Solution dc_pool(task::ThreadPool& pool, Problem problem, const IsBase& is_base,
                 const Base& base, const Split& split, const Merge& merge,
                 int depth) {
  if (is_base(problem)) return base(std::move(problem));

  std::vector<Problem> subproblems = split(std::move(problem));
  std::vector<Solution> subsolutions(subproblems.size());

  if (depth > 0 && subproblems.size() > 1) {
    // Fork all but the first subproblem onto the pool; solve the first on
    // this thread; the join helps execute forked (and stolen-back) tasks.
    task::TaskGroup group(pool);
    for (std::size_t i = 1; i < subproblems.size(); ++i) {
      group.run([&pool, &is_base, &base, &split, &merge, depth, &subsolutions, i,
                 sub = std::move(subproblems[i])]() mutable {
        subsolutions[i] = dc_pool<Problem, Solution>(
            pool, std::move(sub), is_base, base, split, merge, depth - 1);
      });
    }
    subsolutions[0] = dc_pool<Problem, Solution>(
        pool, std::move(subproblems[0]), is_base, base, split, merge, depth - 1);
    group.wait();
  } else {
    for (std::size_t i = 0; i < subproblems.size(); ++i) {
      subsolutions[i] = dc_pool<Problem, Solution>(
          pool, std::move(subproblems[i]), is_base, base, split, merge, 0);
    }
  }
  return merge(std::move(subsolutions));
}

}  // namespace detail

/// Recursive divide-and-conquer driver on the work-stealing pool.
///
///   is_base(p)  -> bool                     problem small enough to solve directly
///   base(p)     -> Solution                 base-case solve
///   split(p)    -> std::vector<Problem>     split into >= 2 subproblems
///   merge(v)    -> Solution                 combine subsolutions (v in split order)
///
/// `parallel_depth` levels of the recursion fork tasks (so up to
/// 2^parallel_depth concurrent leaves for binary splits — the Fig 1 process
/// tree); below that the recursion is sequential. parallel_depth == 0 gives a
/// fully sequential execution with identical results; any parallel_depth
/// produces results identical to parallel_depth == 0 because subsolutions are
/// merged in split order.
template <typename Problem, typename Solution, typename IsBase, typename Base,
          typename Split, typename Merge>
Solution divide_and_conquer(Problem problem, const IsBase& is_base, const Base& base,
                            const Split& split, const Merge& merge,
                            int parallel_depth = 0) {
  return detail::dc_pool<Problem, Solution>(
      task::ThreadPool::instance(), std::move(problem), is_base, base, split,
      merge, parallel_depth);
}

/// Depth such that 2^depth >= nprocs: the fork depth that puts one leaf of a
/// binary recursion on each of `nprocs` processors.
[[nodiscard]] inline int fork_depth_for(int nprocs) {
  int depth = 0;
  int leaves = 1;
  while (leaves < nprocs) {
    leaves *= 2;
    ++depth;
  }
  return depth;
}

}  // namespace ppa::dc
