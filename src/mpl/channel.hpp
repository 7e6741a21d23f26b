// ppa/mpl/channel.hpp
//
// Fixed-peer channels: one single-producer, single-consumer ring between
// two physical ranks for traffic whose peers are known before it starts —
// the scalar collectives (process.hpp) and the batched block-plan halo
// rounds (meshspectral/blockplan.hpp). This is MPI's persistent request
// (MPI_Send_init / MPI_Start) in shared memory: the route is bound once,
// so a handoff is one cache line and no envelope, lock, tag search or
// payload allocation.
//
// Layout. A ring of kSlots slots, each one 64-byte line holding the
// sequence word the receiver polls, the tag, the size, and either the value
// inline (at most kInlineBytes) or a pointer into one of the channel's two
// halo buffers. Message k lives in slot k % kSlots and is published by
// storing k + 1 into that slot's sequence word, so one line carries both
// the "it is here" signal and the data. The consumer returns *credit* — the
// count of messages it has finished with — on a line of its own; the
// producer caches it and reads it only when the ring looks full.
//
// Halo buffers. Buffered messages alternate between two buffers owned by
// the channel (message k uses buffer k % 2), sized by the producer on
// first use, when it holds credit for that buffer. The producer packs
// straight into the buffer; the consumer reads it in place and releases it
// when it has unpacked, so a round costs one pack and one unpack, and
// double buffering lets a sender begin round k+1 while its peer still
// unpacks round k. A channel carries either inline values or buffered
// messages, never both.
//
// Waiting. A receive waits for its slot's sequence word, a send for
// credit. Both spin for the mailbox's bound (detail::kSpinIters, only when
// spinning is worthwhile on this host) and then park on the channel's
// condition variable with the mailbox's parked-count handshake: the waiter
// bumps a parked count (seq_cst) before its last look, the other side
// publishes (seq_cst) before it reads the count, so one of the two sees the
// other. The other side notifies only when someone is parked.
//
// Checks and teardown. Every receive names the tag it expects; a message
// with another tag (or, for a value, another size) throws
// ChannelTagMismatch rather than handing over the wrong payload — the
// signature of ranks issuing different collectives or plans in the same
// position. Every wait takes the job's abort flag: JobContext::abort
// raises it and wake()s the channels of the job's ranks, so spinning and
// parked waiters leave with WorldAborted. reset() drops whatever a failed
// or unbalanced job left in flight.
//
// Thread-safety: exactly one producer thread and one consumer thread at a
// time. reset() requires that neither is inside the channel; wake() may be
// called from any thread. Channels are owned by the World (World::channel)
// and live as long as it does.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

#include "mpl/mailbox.hpp"
#include "mpl/message.hpp"

namespace ppa::mpl {

/// Channel keys between one ordered pair of ranks: the scalar collectives
/// share one channel; each block-plan tag block gets its own.
inline constexpr int kCollectiveChannel = 0;
inline constexpr int kPlanChannelBase = 1;
inline constexpr int kPlanChannelBlocks = 128;
inline constexpr int kChannelKeys = kPlanChannelBase + kPlanChannelBlocks;

/// A channel receive found a message other than the one it expected: the
/// two ranks issued different collectives (or plan rounds) at the same
/// point of their SPMD sequence.
struct ChannelTagMismatch : std::logic_error {
  ChannelTagMismatch(std::uint32_t expected_tag, std::uint32_t got_tag,
                     std::size_t expected_bytes, std::size_t got_bytes)
      : std::logic_error(
            "ppa::mpl channel tag mismatch: expected tag " +
            std::to_string(expected_tag) + " (" +
            std::to_string(expected_bytes) + " B), received tag " +
            std::to_string(got_tag) + " (" + std::to_string(got_bytes) +
            " B); ranks issued different collectives or plan rounds") {}
};

class Channel {
 public:
  static constexpr std::size_t kLineBytes = 64;
  static constexpr std::uint64_t kSlots = 4;
  static constexpr std::uint64_t kBuffers = 2;
  static constexpr std::size_t kInlineBytes = 48;
  /// Expected size that skips the size check (buffered messages).
  static constexpr std::size_t kAnySize = static_cast<std::size_t>(-1);

  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // --- producer ------------------------------------------------------------

  /// Publish one inline value, waiting for a free slot.
  template <Wire T>
  void send_value(std::uint32_t tag, const T& value,
                  const std::atomic<bool>& aborted) {
    static_assert(sizeof(T) <= kInlineBytes);
    wait_for_credit(kSlots, aborted);
    Slot& s = slot(prod_.sent);
    s.tag = tag;
    s.size = sizeof(T);
    std::memcpy(s.inline_bytes, &value, sizeof(T));
    publish(s);
  }

  /// The buffer the next buffered message is packed into, at least
  /// `capacity` bytes; waits until the consumer released the message that
  /// last used it.
  std::byte* buffer(std::size_t capacity, const std::atomic<bool>& aborted) {
    wait_for_credit(kBuffers, aborted);
    Buffer& b = prod_.buffers[prod_.sent % kBuffers];
    if (b.capacity < capacity) {
      b.data = std::make_unique_for_overwrite<std::byte[]>(capacity);
      b.capacity = capacity;
    }
    return b.data.get();
  }

  /// Publish the first `bytes` bytes of the buffer last returned by
  /// buffer() as the next message.
  void send_buffer(std::uint32_t tag, std::size_t bytes) {
    Slot& s = slot(prod_.sent);
    s.tag = tag;
    s.size = static_cast<std::uint32_t>(bytes);
    s.data = prod_.buffers[prod_.sent % kBuffers].data.get();
    publish(s);
  }

  /// Lose the next message (a kDrop fault: wire loss). Its number is
  /// spent and nothing is published, so the consumer waits on it — and the
  /// producer, once the ring fills, on credit — until the job is torn down;
  /// later messages never slip into its place.
  void drop() noexcept { ++prod_.sent; }

  // --- consumer ------------------------------------------------------------

  /// Receive one inline value published by send_value.
  template <Wire T>
  T recv_value(std::uint32_t tag, const std::atomic<bool>& aborted) {
    const Slot& s = wait_for_message(tag, sizeof(T), aborted);
    T value{};
    std::memcpy(&value, s.inline_bytes, sizeof(T));
    release();
    return value;
  }

  /// Receive one buffered message and borrow its bytes; they stay valid
  /// until release().
  std::span<const std::byte> recv_buffer(std::uint32_t tag,
                                         const std::atomic<bool>& aborted) {
    const Slot& s = wait_for_message(tag, kAnySize, aborted);
    return {s.data, s.size};
  }

  /// Hand the oldest received message back to the producer (credit).
  void release() {
    ++cons_.released;
    credit_.released.store(cons_.released, std::memory_order_seq_cst);
    if (park_.producer.load(std::memory_order_seq_cst) > 0) wake();
  }

  // --- job lifecycle -------------------------------------------------------

  /// Drop every message in flight (published but not received, or
  /// received but not released). No-op on an idle channel, so a clean job
  /// leaves nothing to write. Precondition: neither side is inside the
  /// channel.
  void reset() {
    if (cons_.released == prod_.sent) return;
    cons_.received = prod_.sent;
    cons_.released = prod_.sent;
    credit_.released.store(prod_.sent, std::memory_order_relaxed);
  }

  /// Release every parked waiter so it re-checks its condition and the
  /// abort flag.
  void wake() {
    { const std::scoped_lock lock(park_.mutex); }
    park_.cv.notify_all();
  }

 private:
  struct alignas(kLineBytes) Slot {
    std::atomic<std::uint64_t> seq{0};  ///< k + 1 once message k is here
    std::uint32_t tag = 0;
    std::uint32_t size = 0;
    union {
      std::byte inline_bytes[kInlineBytes];
      const std::byte* data;
    };
    Slot() : inline_bytes{} {}
  };
  static_assert(sizeof(Slot) == kLineBytes, "one slot is one cache line");

  struct Buffer {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
  };

  Slot& slot(std::uint64_t k) noexcept { return slots_[k % kSlots]; }

  template <typename Ready>
  void wait(Ready ready, std::atomic<int>& parked,
            const std::atomic<bool>& aborted) {
    if (ready(std::memory_order_acquire)) return;
    if (detail::spin_worthwhile()) {
      for (int spin = 0; spin < detail::kSpinIters; ++spin) {
        detail::cpu_pause();
        if (ready(std::memory_order_acquire)) return;
        if (aborted.load(std::memory_order_relaxed)) throw WorldAborted{};
      }
    }
    for (;;) {
      parked.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock lock(park_.mutex);
        park_.cv.wait(lock, [&] {
          return ready(std::memory_order_seq_cst) ||
                 aborted.load(std::memory_order_seq_cst);
        });
      }
      parked.fetch_sub(1, std::memory_order_relaxed);
      if (ready(std::memory_order_acquire)) return;
      if (aborted.load(std::memory_order_acquire)) throw WorldAborted{};
    }
  }

  /// Wait until fewer than `window` messages are unreleased.
  void wait_for_credit(std::uint64_t window, const std::atomic<bool>& aborted) {
    if (prod_.sent - prod_.released < window) return;
    wait(
        [&](std::memory_order order) {
          prod_.released = credit_.released.load(order);
          return prod_.sent - prod_.released < window;
        },
        park_.producer, aborted);
  }

  void publish(Slot& s) {
    s.seq.store(++prod_.sent, std::memory_order_seq_cst);
    if (park_.consumer.load(std::memory_order_seq_cst) > 0) wake();
  }

  const Slot& wait_for_message(std::uint32_t tag, std::size_t bytes,
                               const std::atomic<bool>& aborted) {
    const std::uint64_t want = cons_.received + 1;
    Slot& s = slot(cons_.received);
    wait([&](std::memory_order order) { return s.seq.load(order) == want; },
         park_.consumer, aborted);
    if (s.tag != tag || (bytes != kAnySize && s.size != bytes)) {
      throw ChannelTagMismatch(tag, s.tag, bytes == kAnySize ? s.size : bytes,
                               s.size);
    }
    cons_.received = want;
    return s;
  }

  std::array<Slot, kSlots> slots_;

  /// Written by the producer only.
  struct alignas(kLineBytes) Producer {
    std::uint64_t sent = 0;      ///< messages published
    std::uint64_t released = 0;  ///< cached copy of credit_.released
    std::array<Buffer, kBuffers> buffers;
  } prod_;

  /// Written by the consumer, read by the producer when the ring looks full.
  struct alignas(kLineBytes) Credit {
    std::atomic<std::uint64_t> released{0};
  } credit_;

  /// Written by the consumer only.
  struct alignas(kLineBytes) Consumer {
    std::uint64_t received = 0;  ///< messages taken from the ring
    std::uint64_t released = 0;  ///< messages handed back
  } cons_;

  /// Touched only around parking.
  struct alignas(kLineBytes) Park {
    std::atomic<int> consumer{0};
    std::atomic<int> producer{0};
    std::mutex mutex;
    std::condition_variable cv;
  } park_;
};

}  // namespace ppa::mpl
