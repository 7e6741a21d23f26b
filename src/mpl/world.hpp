// ppa/mpl/world.hpp
//
// The shared runtime state behind SPMD computations, in two scopes. A World
// corresponds to what the paper calls the code skeleton's responsibility to
// "create and connect the N processes"; a JobContext is one computation run
// over some of those processes.
//
// World: what outlives a job — one mailbox per rank (their lane tables are
// the expensive part to build), the fixed-peer channels (channel.hpp), the
// recyclable tag space and the per-rank progress counters. A persistent
// Engine keeps one World for its lifetime; spmd_run_cold builds a fresh one
// per run. Channels are created on first use, per (source, destination,
// key) — only for the pairs jobs actually use — and found afterwards with
// two acquire loads, no lock.
//
// JobContext: everything scoped to one computation — the barrier, the
// communication trace, the cancel flag, and the mapping of the job's
// logical ranks 0..np-1 to the physical ranks it occupies. Every
// Process binds to a JobContext, so a job body observes exactly the same
// world whether it runs cold on ranks [0, np), warm on an engine, or beside
// sibling jobs on a disjoint rank set of a space-shared World. Mailboxes
// stay per physical rank (a rank belongs to at most one job at a time).
//
// Thread-safety and ownership: a World must outlive every JobContext and
// Process bound to it (spmd_run_cold and the engine guarantee this by
// joining/rendezvousing before destruction). mailbox(), channel(),
// bump_progress() and progress() are safe from any rank thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpl/barrier.hpp"
#include "mpl/channel.hpp"
#include "mpl/mailbox.hpp"
#include "mpl/tagspace.hpp"
#include "mpl/trace.hpp"

namespace ppa::mpl {

class World {
 public:
  explicit World(int size);
  /// Construct with an injected tag space (tests use a small range to
  /// exercise exhaustion/recycling cheaply).
  World(int size, std::shared_ptr<TagSpace> tags);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Capacity: ranks with mailboxes (the engine's width).
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] Mailbox& mailbox(int rank) {
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }

  /// The channel carrying `key` traffic (kCollectiveChannel, or
  /// kPlanChannelBase + a plan's tag block) from physical rank `src` to
  /// physical rank `dst`; created on first use, stable for the World's
  /// lifetime.
  [[nodiscard]] Channel& channel(int src, int dst, int key) {
    const PairChannels* pair =
        pairs_[static_cast<std::size_t>(src) * static_cast<std::size_t>(size_) +
               static_cast<std::size_t>(dst)]
            .load(std::memory_order_acquire);
    if (pair != nullptr) [[likely]] {
      Channel* ch = pair->keys[static_cast<std::size_t>(key)].load(
          std::memory_order_acquire);
      if (ch != nullptr) [[likely]] return *ch;
    }
    return create_channel(src, dst, key);
  }
  /// Drop what is in flight on every channel into `rank` (JobContext::begin).
  void reset_channels_into(int rank);
  /// Wake every waiter parked on a channel into `rank` (JobContext::abort).
  void wake_channels_into(int rank);

  /// This World's recyclable tag allocator (see tagspace.hpp). Every run
  /// that needs a private tag range should hold a TagBlock from here so the
  /// tags return to the pool when the run ends.
  [[nodiscard]] TagSpace& tag_space() noexcept { return *tags_; }
  [[nodiscard]] const std::shared_ptr<TagSpace>& tag_space_ptr() const noexcept {
    return tags_;
  }
  /// Reserve `count` tags as an RAII block (release-on-destruction).
  [[nodiscard]] TagBlock reserve_tags(int count) { return TagBlock(tags_, count); }

  /// Per-rank heartbeat: bumped whenever rank completes a unit of substrate
  /// work (a send, a successful receive, a barrier arrival). Monotone across
  /// jobs — the watchdog consumes deltas, so counters are never reset.
  void bump_progress(int rank) noexcept {
    progress_[static_cast<std::size_t>(rank)].value.fetch_add(
        1, std::memory_order_relaxed);
  }
  /// One rank's heartbeat (the per-job watchdog sums these over a job's
  /// rank set only).
  [[nodiscard]] std::uint64_t progress(int rank) const noexcept {
    return progress_[static_cast<std::size_t>(rank)].value.load(
        std::memory_order_relaxed);
  }

 private:
  /// One cache line per rank: heartbeats are bumped on every substrate op,
  /// so sharing a line across ranks would ping-pong it.
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> value{0};
  };

  /// The channels of one ordered rank pair, one slot per key.
  struct PairChannels {
    std::array<std::atomic<Channel*>, kChannelKeys> keys{};
  };

  Channel& create_channel(int src, int dst, int key);

  int size_;
  std::shared_ptr<TagSpace> tags_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<PaddedCounter> progress_;  ///< one per rank; see bump_progress
  /// size_ x size_ table indexed src * size_ + dst; null until the pair is
  /// first used. Written under channel_mutex_, read lock-free.
  std::unique_ptr<std::atomic<PairChannels*>[]> pairs_;
  /// Owners: the pair tables, and every channel by destination rank (the
  /// lists JobContext::begin and abort walk). Guarded by channel_mutex_.
  std::mutex channel_mutex_;
  std::vector<std::unique_ptr<PairChannels>> pair_owner_;
  std::vector<std::vector<std::unique_ptr<Channel>>> inbound_;
};

/// Per-job state for one computation over a set of a World's ranks (all of
/// them for a cold run, a subset for a space-shared job). Owns the job's
/// barrier (sized to the job width), its communication trace (indexed by
/// the job's logical ranks), its abort flag (every channel wait of the
/// job's ranks watches it) and its cancel flag; abort() tears down only
/// this job — its barrier, its ranks' mailboxes and the channels into its
/// ranks — leaving sibling jobs on the other ranks untouched.
///
/// Thread-safety: begin() and the constructor must run while no thread is
/// inside a primitive of any of this context's ranks (the engine admits a
/// job only onto parked ranks). abort(), request_cancel() and the const
/// accessors are safe from any thread; two contexts over disjoint rank
/// sets never touch the same mutable state.
class JobContext {
 public:
  /// Bind the physical `ranks` (distinct, each in [0, world.size())) of
  /// `world` as logical ranks 0..ranks.size()-1 of this job. The World
  /// must outlive the context.
  JobContext(World& world, std::vector<int> ranks);
  JobContext(const JobContext&) = delete;
  JobContext& operator=(const JobContext&) = delete;

  [[nodiscard]] World& world() noexcept { return world_; }
  /// Job width (number of ranks in the set).
  [[nodiscard]] int nprocs() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  /// Physical rank occupied by logical rank `logical`.
  [[nodiscard]] int physical(int logical) const noexcept {
    return ranks_[static_cast<std::size_t>(logical)];
  }
  /// Logical rank of physical rank `rank`, or -1 when outside the set.
  [[nodiscard]] int logical(int rank) const noexcept {
    return inverse_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const std::vector<int>& ranks() const noexcept { return ranks_; }

  [[nodiscard]] AbortableBarrier& barrier() noexcept { return barrier_; }
  [[nodiscard]] CommTrace& trace() noexcept { return trace_; }

  /// Open this job's epoch: empty and re-arm the rank set's mailboxes and
  /// the channels into its ranks, zero the trace, clear abort and cancel,
  /// re-arm the barrier. Only this context's ranks are touched —
  /// concurrent sibling jobs are unaffected.
  void begin();

  /// Tear down *this job only*: release every rank of the set blocked in a
  /// recv/barrier/channel wait with WorldAborted. Idempotent, never blocks
  /// on the job's ranks; sibling jobs on disjoint ranks keep running.
  void abort();

  /// Raised by abort(); every channel wait of this job's ranks watches it.
  [[nodiscard]] const std::atomic<bool>& aborted_flag() const noexcept {
    return aborted_;
  }

  /// Cooperative cancellation for this job (Process::cancelled()).
  void request_cancel() noexcept {
    cancel_requested_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_requested_.load(std::memory_order_acquire);
  }

  /// Sum of the World heartbeats of this job's ranks only — the per-job
  /// watchdog signal (a stalled sibling job must not mask this one's
  /// progress, and vice versa).
  [[nodiscard]] std::uint64_t progress_total() const noexcept;

 private:
  World& world_;
  std::vector<int> ranks_;    ///< logical -> physical, ascending
  std::vector<int> inverse_;  ///< physical -> logical, -1 outside the set
  AbortableBarrier barrier_;
  CommTrace trace_;  ///< indexed by logical rank
  std::atomic<bool> aborted_{false};
  std::atomic<bool> cancel_requested_{false};
};

}  // namespace ppa::mpl
