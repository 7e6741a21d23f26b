// ppa/mpl/trace.hpp
//
// Communication tracing. The paper's central claim is that an archetype
// *implies* a communication structure ("It is straightforward to infer the
// interprocess communication required ... from dataflow patterns"); the
// tracer lets tests assert that the implementation realizes exactly the
// predicted pattern (e.g. one all-to-all during the one-deep merge phase, one
// boundary exchange plus one allreduce per Jacobi step).
//
// Beyond message/op counts, the tracer distinguishes *logical* traffic
// (bytes addressed to a destination) from *physical* copies (bytes actually
// memcpy'd during pack/unpack). With shared-buffer payloads a broadcast
// moves O(p · n) logical bytes while copying only O(n) per rank; tests pin
// that property. Per-sender byte counters expose load imbalance: a
// root-bottlenecked collective shows up as one rank sending O(p · n) while
// the others send nothing.
//
// Thread-safety: CommTrace is shared by all ranks of a World or job, but
// each rank counts into its own block of relaxed atomics (a rank-indexed
// count_* call touches only that rank's block), so count_* calls are
// thread-safe, wait-free, never block, and ranks do not bounce one shared
// cache line between cores on every send. snapshot() sums the blocks with
// relaxed loads: exact once the ranks have joined. TraceSnapshot is an
// immutable value type.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ppa::mpl {

/// Categories of traced events. kSend counts every point-to-point message
/// (including those issued internally by collectives); the collective
/// counters count one event per *participating rank* per call.
enum class Op : int {
  kSend = 0,
  kBarrier,
  kBroadcast,
  kGather,
  kAllgather,
  kScatter,
  kReduce,
  kAllreduce,
  kAlltoall,
  kScan,
  kCount_  // sentinel
};

inline constexpr int kOpCount = static_cast<int>(Op::kCount_);

[[nodiscard]] std::string op_name(Op op);

/// Immutable snapshot of trace counters.
struct TraceSnapshot {
  std::uint64_t messages = 0;     ///< total point-to-point messages
  std::uint64_t bytes = 0;        ///< total logical payload bytes
  std::uint64_t copies = 0;       ///< pack/unpack memcpy events
  std::uint64_t copied_bytes = 0; ///< bytes physically memcpy'd
  std::array<std::uint64_t, kOpCount> ops{};
  std::vector<std::uint64_t> sent_bytes_by_rank;  ///< logical bytes per sender

  [[nodiscard]] std::uint64_t op(Op o) const {
    return ops[static_cast<std::size_t>(o)];
  }
  /// Largest per-sender byte count (0 when per-rank tracking is off).
  [[nodiscard]] std::uint64_t max_sent_by_any_rank() const;
  /// Human-readable multi-line summary.
  [[nodiscard]] std::string to_string() const;
};

/// Thread-safe counters shared by all ranks of a World or job, one counter
/// block per rank. Constructing with a world size gives one block per rank
/// and enables per-sender byte accounting (a block's `bytes` is that
/// sender's logical bytes); a default-constructed trace has one block that
/// every rank counts into, and reports no per-sender bytes.
class CommTrace {
 public:
  explicit CommTrace(int nranks = 0);

  /// Count one point-to-point message of `payload_bytes` sent by `rank`.
  void count_message(int rank, std::uint64_t payload_bytes) {
    Block& b = block(rank);
    b.messages.fetch_add(1, std::memory_order_relaxed);
    b.bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  /// Count one pack/unpack memcpy of `copied` bytes done by `rank`.
  void count_copy(int rank, std::uint64_t copied) {
    Block& b = block(rank);
    b.copies.fetch_add(1, std::memory_order_relaxed);
    b.copied_bytes.fetch_add(copied, std::memory_order_relaxed);
  }
  /// Count `rank`'s participation in one collective (or barrier) call.
  void count_op(int rank, Op op) {
    block(rank).ops[static_cast<std::size_t>(op)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void reset();
  [[nodiscard]] TraceSnapshot snapshot() const;

 private:
  /// One rank's counters. Padded to a 192-byte stride so the counters of
  /// two ranks never share a 64-byte cache line, whatever the allocation's
  /// alignment (112 bytes of counters, then 80 of padding). Deliberately
  /// not alignas(64): a job allocates its trace, and over-aligned heap
  /// allocation per job measurably raised peak RSS on a stream of small
  /// jobs.
  struct Block {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> copies{0};
    std::atomic<std::uint64_t> copied_bytes{0};
    std::array<std::atomic<std::uint64_t>, kOpCount> ops{};
    std::byte pad[192 - (4 + kOpCount) * sizeof(std::uint64_t)]{};
  };
  static_assert(sizeof(Block) == 192, "CommTrace::Block stride");

  Block& block(int rank) noexcept {
    const auto r = per_rank_ ? static_cast<std::size_t>(rank) : 0;
    assert(r < blocks_.size());
    return blocks_[r];
  }

  std::vector<Block> blocks_;
  bool per_rank_;  ///< one block per rank (else one shared block)
};

}  // namespace ppa::mpl
