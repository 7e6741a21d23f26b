// ppa/mpl/tagspace.hpp
//
// Recyclable user-tag allocation. Subsystems that need private point-to-point
// tag ranges (one [data, credit] pair per pipeline edge, a block per
// redistribution plan, ...) reserve a contiguous block and release it when
// the run or plan is torn down, so a long-lived World — the persistent
// engine's reusable communication context — can host an unbounded stream of
// runs without ever exhausting the 2^31 tag space. The old process-global
// allocator was a monotone counter: ~2^31 - 2^24 tags, then std::length_error
// after a few hundred million pipeline runs on one engine.
//
// Allocation is first-fit over a sorted, coalesced free list; release merges
// the block back with its neighbors, so the steady state of a serially-run
// workload (reserve, run, release, repeat) reuses the same block forever.
//
// Thread-safety and ownership: TagSpace is fully thread-safe (one mutex; no
// operation blocks on anything but that mutex). A TagSpace is normally owned
// by a World via shared_ptr; TagBlock — the RAII reservation handle — keeps
// its TagSpace alive, so a block may safely outlive the World that issued it
// (it just returns tags nobody will reserve again).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ppa::mpl {

/// Base of the reserved tag space. Ad-hoc user tags should stay below this
/// value; tags handed out by TagSpace are at or above it.
inline constexpr int kReservedTagSpaceBase = 1 << 24;

/// Thrown by TagSpace::reserve when no free range can satisfy the request.
/// Derives from std::length_error (the historical exhaustion type, which
/// existing callers catch); the message reports how many tags were asked
/// for and how many are outstanding, so a leak — outstanding ~ capacity
/// under a reserve/release workload — is distinguishable at a glance from
/// fragmentation or an oversized request.
struct TagSpaceExhausted : std::length_error {
  TagSpaceExhausted(int requested_tags, int outstanding_tags, int capacity_tags)
      : std::length_error("mpl::TagSpace: tag space exhausted (requested " +
                          std::to_string(requested_tags) + ", outstanding " +
                          std::to_string(outstanding_tags) + " of " +
                          std::to_string(capacity_tags) + ")"),
        requested(requested_tags),
        outstanding(outstanding_tags),
        capacity(capacity_tags) {}
  int requested;    ///< block size asked for
  int outstanding;  ///< tags reserved and not yet released
  int capacity;     ///< limit() - base()
};

class TagSpace {
 public:
  /// A tag space over [base, limit). The defaults cover the full reserved
  /// range; tests inject a small range to exercise exhaustion and recycling
  /// without looping 2^31 times.
  explicit TagSpace(int base = kReservedTagSpaceBase,
                    int limit = std::numeric_limits<std::int32_t>::max())
      : base_(base), limit_(limit) {
    assert(base > 0 && limit > base);
    free_.emplace_back(base, limit);
  }
  TagSpace(const TagSpace&) = delete;
  TagSpace& operator=(const TagSpace&) = delete;

  /// Reserve a contiguous block of `count` tags; returns its first tag.
  /// Throws TagSpaceExhausted (a std::length_error) when no free range can
  /// hold the block — loud in release builds too, where a silent wrap would
  /// alias the negative tags reserved for internal collectives.
  int reserve(int count) {
    assert(count > 0);
    const std::scoped_lock lock(mutex_);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second - it->first >= count) {
        const int lo = it->first;
        it->first += count;
        if (it->first == it->second) free_.erase(it);
        outstanding_ += count;
        return lo;
      }
    }
    throw TagSpaceExhausted(count, outstanding_, limit_ - base_);
  }

  /// Return a previously reserved block. Releasing tags that were never
  /// reserved (or releasing twice) corrupts the free list; TagBlock makes
  /// that impossible in normal use.
  void release(int lo, int count) {
    if (count <= 0) return;
    const int hi = lo + count;
    assert(lo >= base_ && hi <= limit_);
    const std::scoped_lock lock(mutex_);
    auto it = std::lower_bound(
        free_.begin(), free_.end(), lo,
        [](const std::pair<int, int>& range, int v) { return range.first < v; });
    it = free_.insert(it, {lo, hi});
    if (const auto next = std::next(it);
        next != free_.end() && it->second == next->first) {
      it->second = next->second;
      // `it` precedes the erased element, so it stays valid.
      free_.erase(next);
    }
    if (it != free_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second == it->first) {
        prev->second = it->second;
        free_.erase(it);
      }
    }
    outstanding_ -= count;
  }

  /// Tags currently reserved (diagnostic: a steadily growing value under a
  /// reserve/release workload is a leak).
  [[nodiscard]] int outstanding() const {
    const std::scoped_lock lock(mutex_);
    return outstanding_;
  }

  [[nodiscard]] int base() const noexcept { return base_; }
  [[nodiscard]] int limit() const noexcept { return limit_; }

 private:
  mutable std::mutex mutex_;
  int base_;
  int limit_;
  std::vector<std::pair<int, int>> free_;  ///< sorted, disjoint, coalesced [lo, hi)
  int outstanding_ = 0;
};

/// RAII handle to a reserved tag block: reserves on construction, releases
/// on destruction (or release()). Move-only; keeps the TagSpace alive.
class TagBlock {
 public:
  TagBlock() = default;
  /// Reserve `count` tags from `space`; throws TagSpaceExhausted when full.
  TagBlock(std::shared_ptr<TagSpace> space, int count)
      : space_(std::move(space)), count_(count), base_(space_->reserve(count)) {}
  TagBlock(TagBlock&& other) noexcept { swap(other); }
  TagBlock& operator=(TagBlock&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  TagBlock(const TagBlock&) = delete;
  TagBlock& operator=(const TagBlock&) = delete;
  ~TagBlock() { release(); }

  [[nodiscard]] int base() const noexcept { return base_; }
  [[nodiscard]] int count() const noexcept { return count_; }
  [[nodiscard]] explicit operator bool() const noexcept { return space_ != nullptr; }

  /// Return the tags early (idempotent).
  void release() {
    if (space_) space_->release(base_, count_);
    space_.reset();
    base_ = 0;
    count_ = 0;
  }

 private:
  void swap(TagBlock& other) noexcept {
    std::swap(space_, other.space_);
    std::swap(count_, other.count_);
    std::swap(base_, other.base_);
  }

  std::shared_ptr<TagSpace> space_;  // declared before base_: reserve() runs in
  int count_ = 0;                    // the member-init order below
  int base_ = 0;
};

}  // namespace ppa::mpl
