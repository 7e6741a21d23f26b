// ppa/meshspectral/global.hpp
//
// Replicated global variables. The archetype requires that "each process
// have a duplicate copy of any global variables with their values kept
// synchronized — any change to such a variable must be duplicated in each
// process before the value of the variable is used again" (paper section
// 4.2). Global<T> enforces that discipline: the value can only be (re)set by
// operations that establish the same value on every process — a broadcast
// from one rank, or a value that is the result of a reduction (checked
// consistent across ranks, in every build type, in verification mode).
//
// Thread-safety and ownership: each rank owns its own Global<T> replica;
// the object itself holds no shared state. get() never blocks; the store_*
// operations communicate (broadcast / allgather / allreduce) and therefore
// block until the collective completes — every rank must call them in the
// same order (SPMD discipline).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "mpl/process.hpp"

namespace ppa::mesh {

/// Thrown by Global::store_replicated in verification mode, on every rank,
/// when the ranks' copies of the value differ.
class GlobalDiverged : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <mpl::Wire T>
class Global {
 public:
  Global() = default;
  explicit Global(const T& initial) : value_(initial) {}

  /// Read the replicated value.
  [[nodiscard]] const T& get() const noexcept { return value_; }
  operator const T&() const noexcept { return value_; }  // NOLINT(google-explicit-constructor)

  /// Set from a value computed identically on all ranks (e.g. a reduction
  /// result or compile-time constant). With `verify`, performs an allgather
  /// and throws GlobalDiverged when any two copies differ — the debugging
  /// aid the archetype's transformation guidelines call for. Every rank
  /// sees the same allgather result, so every rank throws (none is left
  /// waiting in a later collective). float and double copies are compared
  /// by bit pattern (identical NaNs agree, -0.0 and +0.0 do not), other
  /// types with ==.
  void store_replicated(mpl::Process& p, const T& value, bool verify = false) {
    if (verify) {
      const auto all = p.allgather_value(value);
      for (std::size_t r = 1; r < all.size(); ++r) {
        if (!same_copy(all[r], all[0])) {
          throw GlobalDiverged("Global::store_replicated: rank " +
                               std::to_string(r) +
                               "'s copy differs from rank 0's");
        }
      }
    }
    value_ = value;
  }

  /// Set from one rank's value; re-establishes copy consistency via
  /// broadcast ("when global data is computed or changed in one process
  /// only ... a broadcast operation is required").
  void store_from(mpl::Process& p, const T& value, int root = 0) {
    value_ = p.broadcast_value(value, root);
  }

  /// Set from per-rank contributions via an allreduce — the archetype's
  /// third consistency-establishing operation ("global data computed from
  /// distributed data": every copy is the same reduction result by
  /// construction, with the substrate's deterministic combination order).
  template <typename BinaryOp>
  void store_reduced(mpl::Process& p, const T& local, BinaryOp op) {
    value_ = p.allreduce(local, op);
  }

 private:
  static bool same_copy(const T& a, const T& b) {
    if constexpr (std::is_same_v<T, float>) {
      return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
    } else if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    } else {
      return a == b;
    }
  }

  T value_{};
};

}  // namespace ppa::mesh
