// ppa/mpl/mailbox.hpp
//
// Per-rank incoming message queue, organized as one *lane per sender rank*.
// Senders push envelopes (never blocking — lanes are unbounded, which makes
// the collective algorithms trivially deadlock-free); receivers block until
// a message matching (source, tag) arrives.
//
// Why lanes: the dominant receive is an exact (source, tag) match issued by
// collectives and neighbor exchanges. With a single deque that match is an
// O(all pending) scan under one mutex, and every push wakes every blocked
// receiver. With per-source lanes the match scans only messages queued from
// that source, senders to the same mailbox do not contend with each other,
// and a push wakes only a receiver waiting on that lane.
//
// Why each lane is split: a latency-bound round (halo exchange, allreduce)
// is one push answered by one pop, so any lock the two sides share puts the
// receiver behind the sender's critical section. A lane is three
// cache-line-aligned parts. The *producer* part (a mutex, the tail of a
// linked list of fixed-size envelope blocks) is taken by pushers. The
// *published* part is a push count the receiver spins on without a lock,
// plus the park handshake. The *consumer* part (its own mutex, the head of
// the block list, and a stash of envelopes already taken from the blocks
// that did not match the tag asked for) is taken by receivers. An exact
// receive takes only the consumer mutex, so it never waits on a sender.
// Emptied blocks go back to the producer through a one-block spare, so a
// steady stream allocates nothing.
//
// Hot path: the lane table is a fixed array of atomic slots sized at
// construction (one per sender rank), so lane lookup is a single acquire
// load — no table lock. Sources beyond the pre-sized table (standalone /
// ad-hoc use) fall back to a small mutex-guarded overflow map.
//
// Semantics preserved from the single-deque design:
//   - FIFO per (source, tag) pair (MPI's non-overtaking guarantee): a lane
//     is FIFO per source, the stash holds only envelopes older than any
//     still in the blocks, and tag filtering preserves relative order.
//   - Wildcards: kAnyTag scans the lane in arrival order; kAnySource picks
//     the globally earliest matching arrival across lanes (every envelope is
//     stamped with an arrival sequence number), which is the strongest —
//     and deterministic — ordering the old global deque provided. A push
//     stamps and publishes under the lane's producer mutex, the wildcard
//     search holds that mutex while it reads a lane, and it rescans until
//     stable, so this holds even against concurrent producers:
//     successive kAnySource receives observe strictly increasing arrival
//     seqs, while interleaved lane-targeted receives see per-source FIFO.
//   - abort() releases every blocked receiver with WorldAborted.
//
// Thread-safety and blocking contract: a Mailbox is fully thread-safe —
// any thread may push; the owning rank (usually one thread) pops. push and
// try_pop never block; pop blocks (spin briefly, then park) until a match
// arrives or the world aborts. Envelopes transfer payload ownership by
// refcount — no data is copied through the queue.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mpl/fault.hpp"
#include "mpl/message.hpp"

namespace ppa::mpl {

/// Thrown out of blocked operations when the SPMD world is torn down because
/// some rank failed; see World::abort().
struct WorldAborted : std::runtime_error {
  WorldAborted() : std::runtime_error("ppa::mpl world aborted (a rank failed)") {}
};

namespace detail {
/// The spin half of every substrate wait (mailbox lanes and channels): a
/// waiter spins this many pauses before it parks.
inline constexpr int kSpinIters = 1500;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spinning before sleeping only pays when another core can be producing
/// concurrently; on a single-CPU host it just delays the sender's schedule.
/// Computed once: hardware_concurrency() reads sysfs.
inline bool spin_worthwhile() {
  static const bool enabled = std::thread::hardware_concurrency() > 1;
  return enabled;
}
}  // namespace detail

class Mailbox {
 public:
  /// `nsenders` sizes the lock-free lane table (one slot per possible
  /// source rank); higher source ranks still work via the overflow map.
  explicit Mailbox(int nsenders = 0);
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue a message (called by the *sender's* thread). Never blocks.
  void push(Envelope env);

  /// Block until a message matching (source, tag) is available and return it.
  /// Either selector may be a wildcard (kAnySource / kAnyTag).
  /// Throws WorldAborted if the mailbox is aborted while waiting.
  Envelope pop(int source, int tag);

  /// Non-blocking variant; returns false if no matching message is queued.
  bool try_pop(int source, int tag, Envelope& out);

  /// Number of queued messages (diagnostic; takes each lane's consumer
  /// lock).
  [[nodiscard]] std::size_t pending() const;

  /// Number of times a blocked receiver woke without finding a matching
  /// message (diagnostic; the single-deque design produced one per blocked
  /// receiver per unrelated push — the "wakeup storm").
  [[nodiscard]] std::uint64_t futile_wakeups() const noexcept {
    return futile_wakeups_.load(std::memory_order_relaxed);
  }

  /// Wake all blocked receivers with WorldAborted.
  void abort();

  /// Drop every queued message, restart arrival sequence numbering and
  /// clear any abort, re-arming the mailbox for a new job epoch. The lane
  /// table is preserved (that is the warm-start win: no re-allocation).
  /// Precondition: no thread is blocked in pop — the engine resets only
  /// between jobs, after every rank has rendezvoused.
  void reset();

  /// Identify the owning rank and its heartbeat counter (see
  /// World::bump_progress): every successful pop bumps the counter, and the
  /// fault-injection pop site reports `owner` as its rank. Optional — a
  /// standalone mailbox works without it.
  void bind_owner(int owner, std::atomic<std::uint64_t>* progress) noexcept {
    owner_ = owner;
    progress_ = progress;
  }

 private:
  static constexpr std::size_t kLineBytes = 64;

  /// A fixed run of envelope slots. A lane's blocks form a singly linked
  /// list from the consumer's head to the producer's tail; a full tail
  /// links a new block, so lanes stay unbounded.
  struct Block {
    static constexpr std::size_t kSlots = 8;
    std::array<Envelope, kSlots> slots;
    /// Linked by the producer before it publishes the first envelope in
    /// the next block, so a consumer that sees that envelope sees the link.
    Block* next = nullptr;
  };

  /// One sender rank's FIFO queue.
  struct Lane {
    Lane();
    ~Lane();
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Pushers (and wildcard scans, which need stamp and publish atomic to
    /// them) serialize on `mutex`.
    struct alignas(kLineBytes) Producer {
      std::mutex mutex;
      Block* tail = nullptr;
      std::size_t slot = 0;  ///< next free slot in tail
    } prod;

    /// `pushes` counts published envelopes (seq_cst: it is one side of the
    /// park handshake). A receiver spins on it without a lock, then parks
    /// on `cv` after bumping `parked`; a push notifies only when `parked`
    /// is nonzero. `spare` hands one emptied block back to the producer.
    struct alignas(kLineBytes) Published {
      std::atomic<std::uint64_t> pushes{0};
      std::atomic<int> parked{0};
      std::atomic<Block*> spare{nullptr};
      std::mutex mutex;
      std::condition_variable cv;
    } pub;

    /// Receivers serialize on `mutex`. `taken` counts envelopes moved out
    /// of the blocks; `stash` holds the taken ones no receive has matched
    /// yet, oldest first.
    struct alignas(kLineBytes) Consumer {
      std::mutex mutex;
      Block* head = nullptr;
      std::size_t slot = 0;  ///< next unread slot in head
      std::uint64_t taken = 0;
      std::deque<Envelope> stash;
    } cons;
  };

  /// Minimum lane-table size for default-constructed mailboxes.
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] static bool tag_matches(const Envelope& env, int tag) noexcept {
    return tag == kAnyTag || env.tag == tag;
  }

  /// Lane for `source`; lock-free lookup for pre-sized sources, creating
  /// lazily (and via the overflow map beyond the table). The returned
  /// reference is stable for the mailbox's lifetime.
  Lane& lane_for(int source);
  Lane* slow_lane_for(int source);

  /// Visit every existing lane (table + overflow) in source order.
  template <typename F>
  void for_each_lane(F&& f) const;

  /// Move the oldest published envelope out of the blocks, recycling a
  /// block once it is read through. lane.cons.mutex must be held and an
  /// untaken envelope must be published.
  static Envelope take_next(Lane& lane);

  /// Move every published envelope into the stash. lane.cons.mutex must
  /// be held; this takes lane.prod.mutex too, so every envelope stamped so
  /// far has been published and is included.
  static void drain_to_stash(Lane& lane);

  /// Extract the first tag-match from one lane: the stash, then the
  /// published envelopes (non-matching ones go to the stash).
  /// lane.cons.mutex must be held. `published` receives the push count the
  /// search covered.
  static bool extract_from_lane(Lane& lane, int tag, Envelope& out,
                                std::uint64_t& published);

  /// Extract the earliest-arrival tag-match across all lanes.
  bool extract_any_source(int tag, Envelope& out);

  Envelope pop_from_lane(int source, int tag);
  Envelope pop_any_source(int tag);

  std::vector<std::atomic<Lane*>> slots_;  ///< fixed size; lock-free reads

  // Lane creation and overflow sources (>= slots_.size()) are rare; both go
  // through growth_mutex_. owned_ keeps every lane alive for destruction.
  mutable std::mutex growth_mutex_;
  std::vector<std::unique_ptr<Lane>> owned_;
  std::vector<std::pair<int, Lane*>> overflow_;  ///< sorted by source

  // Wildcard receivers wait here; push notifies only when one is registered.
  std::mutex any_mutex_;
  std::condition_variable any_cv_;
  std::atomic<int> any_waiters_{0};

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> futile_wakeups_{0};
  std::atomic<bool> aborted_{false};

  int owner_ = -1;                               ///< see bind_owner
  std::atomic<std::uint64_t>* progress_ = nullptr;  ///< owner's heartbeat
};

}  // namespace ppa::mpl
