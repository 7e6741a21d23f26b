#include "mpl/mailbox.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace ppa::mpl {


Mailbox::Lane::Lane() {
  prod.tail = new Block;
  cons.head = prod.tail;
}

Mailbox::Lane::~Lane() {
  for (Block* b = cons.head; b != nullptr;) {
    Block* next = b->next;
    delete b;
    b = next;
  }
  delete pub.spare.load(std::memory_order_acquire);
}

Mailbox::Mailbox(int nsenders)
    : slots_(std::max(static_cast<std::size_t>(nsenders > 0 ? nsenders : 0),
                      kMinSlots)) {
  assert(nsenders >= 0);
  // Pre-create the lanes for known senders so the hot path never takes the
  // growth mutex.
  const std::scoped_lock lock(growth_mutex_);
  owned_.reserve(static_cast<std::size_t>(nsenders));
  for (int s = 0; s < nsenders; ++s) {
    owned_.push_back(std::make_unique<Lane>());
    slots_[static_cast<std::size_t>(s)].store(owned_.back().get(),
                                              std::memory_order_release);
  }
}

Mailbox::Lane& Mailbox::lane_for(int source) {
  assert(source >= 0 && "message source must be a valid rank");
  const auto idx = static_cast<std::size_t>(source);
  if (idx < slots_.size()) {
    Lane* lane = slots_[idx].load(std::memory_order_acquire);
    if (lane != nullptr) return *lane;
  }
  return *slow_lane_for(source);
}

Mailbox::Lane* Mailbox::slow_lane_for(int source) {
  const auto idx = static_cast<std::size_t>(source);
  const std::scoped_lock lock(growth_mutex_);
  if (idx < slots_.size()) {
    Lane* lane = slots_[idx].load(std::memory_order_relaxed);
    if (lane == nullptr) {
      owned_.push_back(std::make_unique<Lane>());
      lane = owned_.back().get();
      slots_[idx].store(lane, std::memory_order_release);
    }
    return lane;
  }
  const auto it = std::lower_bound(
      overflow_.begin(), overflow_.end(), source,
      [](const auto& entry, int s) { return entry.first < s; });
  if (it != overflow_.end() && it->first == source) return it->second;
  owned_.push_back(std::make_unique<Lane>());
  Lane* lane = owned_.back().get();
  overflow_.insert(it, {source, lane});
  return lane;
}

template <typename F>
void Mailbox::for_each_lane(F&& f) const {
  for (const auto& slot : slots_) {
    Lane* lane = slot.load(std::memory_order_acquire);
    if (lane != nullptr) f(*lane);
  }
  const std::scoped_lock lock(growth_mutex_);
  for (const auto& [source, lane] : overflow_) f(*lane);
}

void Mailbox::push(Envelope env) {
  // Fault-injection send site (one relaxed load when disabled): a kDelay
  // rule stalls this sender — reordering pressure against faster peers — a
  // kDrop rule discards the message after the sender's trace accounting
  // (wire loss: the receiver wedges until watchdog/deadline rescue), and a
  // kThrow rule raises FaultInjected out of the send.
  if (fault_point(FaultSite::kMailboxPush, env.source) ==
      FaultAction::kDropMessage) {
    return;
  }
  Lane& lane = lane_for(env.source);
  {
    // Stamp the arrival sequence number and publish *inside* the producer
    // critical section: a wildcard scan holds this mutex while it reads the
    // lane, so stamping and publishing are atomic to it, which is what makes
    // the stable rescan in extract_any_source sound (a message stamped
    // before a scan begins is guaranteed visible to that scan).
    auto& prod = lane.prod;
    const std::scoped_lock lock(prod.mutex);
    env.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    if (prod.slot == Block::kSlots) {
      Block* fresh = lane.pub.spare.exchange(nullptr, std::memory_order_acq_rel);
      if (fresh == nullptr) fresh = new Block;
      prod.tail->next = fresh;
      prod.tail = fresh;
      prod.slot = 0;
    }
    prod.tail->slots[prod.slot++] = std::move(env);
    lane.pub.pushes.fetch_add(1, std::memory_order_seq_cst);
  }
  // Park handshake, sender side: the count was bumped (seq_cst) before this
  // load, and a receiver bumps `parked` before its last look at the count,
  // so at least one of the two sees the other. At most one thread — the
  // mailbox owner — ever parks on a lane in the SPMD runtime, so notify_all
  // costs the same as notify_one and is robust to standalone
  // multi-consumer use.
  if (lane.pub.parked.load(std::memory_order_seq_cst) > 0) {
    {
      const std::scoped_lock lock(lane.pub.mutex);
    }
    lane.pub.cv.notify_all();
  }
  // Wildcard receivers park on a separate channel; skip the notify entirely
  // when none is registered (the common case).
  if (any_waiters_.load(std::memory_order_acquire) > 0) {
    const std::scoped_lock lock(any_mutex_);
    any_cv_.notify_all();
  }
}

Envelope Mailbox::take_next(Lane& lane) {
  auto& cons = lane.cons;
  if (cons.slot == Block::kSlots) {
    // Read through: the producer linked the next block before publishing
    // the envelope this call takes, and never touches this one again.
    Block* done = cons.head;
    cons.head = done->next;
    cons.slot = 0;
    done->next = nullptr;
    delete lane.pub.spare.exchange(done, std::memory_order_acq_rel);
  }
  ++cons.taken;
  return std::move(cons.head->slots[cons.slot++]);
}

void Mailbox::drain_to_stash(Lane& lane) {
  const std::scoped_lock lock(lane.prod.mutex);
  const std::uint64_t published = lane.pub.pushes.load(std::memory_order_acquire);
  while (lane.cons.taken < published) lane.cons.stash.push_back(take_next(lane));
}

bool Mailbox::extract_from_lane(Lane& lane, int tag, Envelope& out,
                                std::uint64_t& published) {
  auto& stash = lane.cons.stash;
  for (auto it = stash.begin(); it != stash.end(); ++it) {
    if (tag_matches(*it, tag)) {
      out = std::move(*it);
      stash.erase(it);
      return true;
    }
  }
  published = lane.pub.pushes.load(std::memory_order_acquire);
  while (lane.cons.taken < published) {
    Envelope env = take_next(lane);
    if (tag_matches(env, tag)) {
      out = std::move(env);
      return true;
    }
    stash.push_back(std::move(env));
  }
  return false;
}

bool Mailbox::extract_any_source(int tag, Envelope& out) {
  // One full pass over the lanes (locking one lane at a time): the lane
  // holding the earliest-arrival match, and that arrival's seq. Draining a
  // lane under its producer mutex brings every envelope stamped so far into
  // the stash, whose first tag match is that lane's earliest.
  const auto find_best = [&](Lane*& best, std::uint64_t& best_seq) {
    best = nullptr;
    best_seq = std::numeric_limits<std::uint64_t>::max();
    for_each_lane([&](Lane& lane) {
      const std::scoped_lock lock(lane.cons.mutex);
      drain_to_stash(lane);
      for (const auto& env : lane.cons.stash) {
        if (tag_matches(env, tag)) {
          if (env.seq < best_seq) {
            best_seq = env.seq;
            best = &lane;
          }
          break;  // later entries in this lane arrived later
        }
      }
    });
  };
  // A single pass is not enough when pushes race it: the pass may read
  // lane A before a low-seq message lands there and lane B after a
  // higher-seq one landed — choosing the later arrival. Because push
  // stamps and publishes atomically under the producer lock, two facts
  // hold: (a) a pass sees every pending message stamped before the pass
  // began, and (b) the global stamp counter is the complete record of
  // stamping — if it did not move across a pass, no push raced it and the
  // pass's candidate is the true earliest (the uncontended fast path: one
  // scan plus two atomic loads). If the counter moved, rescan until a full
  // pass finds nothing earlier than the current candidate: the candidate
  // predates that stable pass, so by (a) any earlier pending message
  // would have been seen by it. The candidate seq strictly decreases
  // across rescans, so the loop terminates; the outer retry only fires
  // when a concurrent consumer stole the candidate (their progress).
  for (;;) {
    const std::uint64_t stamped_before = next_seq_.load(std::memory_order_acquire);
    Lane* best = nullptr;
    std::uint64_t best_seq = 0;
    find_best(best, best_seq);
    if (best == nullptr) return false;
    if (next_seq_.load(std::memory_order_acquire) != stamped_before) {
      bool stolen = false;
      for (;;) {
        Lane* again = nullptr;
        std::uint64_t again_seq = 0;
        find_best(again, again_seq);
        if (again == nullptr) {
          stolen = true;  // candidate consumed concurrently
          break;
        }
        if (again_seq < best_seq) {
          best = again;
          best_seq = again_seq;
          continue;
        }
        break;  // stable: nothing pending is earlier than the candidate
      }
      if (stolen) continue;
    }
    // Extract precisely the candidate (the stash is in arrival order, so
    // the first tag match is the earliest).
    {
      const std::scoped_lock lock(best->cons.mutex);
      auto& stash = best->cons.stash;
      for (auto it = stash.begin(); it != stash.end(); ++it) {
        if (tag_matches(*it, tag)) {
          if (it->seq != best_seq) break;  // consumed; restart the search
          out = std::move(*it);
          stash.erase(it);
          return true;
        }
      }
    }
  }
}

Envelope Mailbox::pop_from_lane(int source, int tag) {
  Lane& lane = lane_for(source);
  auto& pub = lane.pub;
  Envelope env;
  std::uint64_t seen = 0;  // push count the last search covered
  const auto search = [&] {
    const std::scoped_lock lock(lane.cons.mutex);
    return extract_from_lane(lane, tag, env, seen);
  };
  if (search()) return env;
  if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
  // Bounded spin phase: probe the push count without any lock and search
  // again only when a new message has been published. In tight
  // request/reply exchanges the reply lands within the spin window, saving
  // the condvar sleep/wake (futex) round-trip entirely.
  if (detail::spin_worthwhile()) {
    for (int spin = 0; spin < detail::kSpinIters; ++spin) {
      if (pub.pushes.load(std::memory_order_acquire) != seen) {
        if (search()) return env;
        if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
      }
      detail::cpu_pause();
    }
  }
  // Park handshake, receiver side (see push): announce the park, then look
  // at the count once more under the park mutex before sleeping.
  for (;;) {
    pub.parked.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock lock(pub.mutex);
      pub.cv.wait(lock, [&] {
        return pub.pushes.load(std::memory_order_seq_cst) != seen ||
               aborted_.load(std::memory_order_acquire);
      });
    }
    pub.parked.fetch_sub(1, std::memory_order_relaxed);
    if (search()) return env;
    if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
    futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
  }
}

Envelope Mailbox::pop_any_source(int tag) {
  std::unique_lock lock(any_mutex_);
  any_waiters_.fetch_add(1, std::memory_order_release);
  bool waited = false;
  try {
    for (;;) {
      Envelope env;
      if (extract_any_source(tag, env)) {
        any_waiters_.fetch_sub(1, std::memory_order_release);
        return env;
      }
      if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
      if (waited) futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
      any_cv_.wait(lock);
      waited = true;
    }
  } catch (...) {
    any_waiters_.fetch_sub(1, std::memory_order_release);
    throw;
  }
}

Envelope Mailbox::pop(int source, int tag) {
  // Fault-injection receive site (drops are meaningless here and ignored;
  // delays model a slow receiver, throws a receive failure).
  (void)fault_point(FaultSite::kMailboxPop, owner_);
  Envelope env =
      source == kAnySource ? pop_any_source(tag) : pop_from_lane(source, tag);
  // A completed receive is the owner's heartbeat: the watchdog reads these
  // counters to distinguish a slow job from a wedged one.
  if (progress_ != nullptr) progress_->fetch_add(1, std::memory_order_relaxed);
  return env;
}

bool Mailbox::try_pop(int source, int tag, Envelope& out) {
  if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
  bool found = false;
  if (source == kAnySource) {
    found = extract_any_source(tag, out);
  } else {
    Lane& lane = lane_for(source);
    const std::scoped_lock lock(lane.cons.mutex);
    std::uint64_t published = 0;
    found = extract_from_lane(lane, tag, out, published);
  }
  if (found && progress_ != nullptr) {
    progress_->fetch_add(1, std::memory_order_relaxed);
  }
  return found;
}

std::size_t Mailbox::pending() const {
  std::size_t total = 0;
  for_each_lane([&total](Lane& lane) {
    const std::scoped_lock lock(lane.cons.mutex);
    total += lane.cons.stash.size() +
             static_cast<std::size_t>(
                 lane.pub.pushes.load(std::memory_order_acquire) - lane.cons.taken);
  });
  return total;
}

void Mailbox::reset() {
  for_each_lane([](Lane& lane) {
    const std::scoped_lock lock(lane.cons.mutex);
    drain_to_stash(lane);
    lane.cons.stash.clear();
  });
  next_seq_.store(0, std::memory_order_relaxed);
  aborted_.store(false, std::memory_order_release);
}

void Mailbox::abort() {
  aborted_.store(true, std::memory_order_seq_cst);
  for_each_lane([](Lane& lane) {
    {
      const std::scoped_lock lock(lane.pub.mutex);
    }
    lane.pub.cv.notify_all();
  });
  const std::scoped_lock lock(any_mutex_);
  any_cv_.notify_all();
}

}  // namespace ppa::mpl
