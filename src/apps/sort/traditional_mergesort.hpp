// ppa/apps/sort/traditional_mergesort.hpp
//
// Traditional parallel mergesort (paper Fig 1): recursive two-way split with
// a new process forked at every split down to a threshold — the baseline the
// one-deep algorithm beats in Fig 6. Its two inefficiencies, per the paper:
// every split/merge level passes over all the data, and the concurrency
// profile is a tree (maximum parallelism only during the leaf solves).
//
// The recursion forks onto the work-stealing pool (dc::divide_and_conquer)
// and produces output identical to a sequential merge sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/sorting.hpp"
#include "core/traditional_dc.hpp"

namespace ppa::app {

/// Sort by traditional fork-join divide and conquer using `nprocs` leaves,
/// forked onto the work-stealing pool: split at the midpoint, merge_sort at
/// leaves no larger than data.size() / 2^depth, two-way merge upward.
template <typename T, typename Compare = std::less<T>>
std::vector<T> traditional_mergesort(std::vector<T> data, int nprocs,
                                     Compare cmp = {}) {
  if (data.size() <= 1) return data;
  const int depth = dc::fork_depth_for(nprocs);
  const std::size_t base_size =
      std::max<std::size_t>(1, data.size() >> static_cast<unsigned>(depth));
  return dc::divide_and_conquer<std::vector<T>, std::vector<T>>(
      std::move(data),
      [base_size](const std::vector<T>& p) { return p.size() <= base_size; },
      [&cmp](std::vector<T> p) {
        algo::merge_sort(p, cmp);
        return p;
      },
      [](std::vector<T> p) {
        const auto mid = static_cast<std::ptrdiff_t>(p.size() / 2);
        std::vector<std::vector<T>> subs(2);
        subs[0].assign(p.begin(), p.begin() + mid);
        subs[1].assign(p.begin() + mid, p.end());
        return subs;
      },
      [&cmp](std::vector<std::vector<T>> sols) {
        std::vector<T> out;
        algo::merge_two(std::span<const T>(sols[0]), std::span<const T>(sols[1]),
                        out, cmp);
        return out;
      },
      depth);
}

}  // namespace ppa::app
