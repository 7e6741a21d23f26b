#include "mpl/world.hpp"

#include <cassert>
#include <stdexcept>

namespace ppa::mpl {

World::World(int size) : World(size, std::make_shared<TagSpace>()) {}

World::World(int size, std::shared_ptr<TagSpace> tags)
    : size_(size),
      tags_(std::move(tags)),
      progress_(size > 0 ? static_cast<std::size_t>(size) : 1) {
  if (size <= 0) throw std::invalid_argument("World size must be positive");
  const auto n = static_cast<std::size_t>(size);
  pairs_ = std::make_unique<std::atomic<PairChannels*>[]>(n * n);
  inbound_.resize(n);
  if (!tags_) throw std::invalid_argument("World tag space must be non-null");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    // One lane per sender rank, pre-sized so the hot path never grows.
    mailboxes_.push_back(std::make_unique<Mailbox>(size));
    // The mailbox stamps the owner's heartbeat on every successful receive
    // (and identifies the owner at its fault-injection sites).
    mailboxes_.back()->bind_owner(r, &progress_[static_cast<std::size_t>(r)].value);
  }
}

Channel& World::create_channel(int src, int dst, int key) {
  assert(src >= 0 && src < size_ && dst >= 0 && dst < size_ && src != dst);
  assert(key >= 0 && key < kChannelKeys);
  const std::scoped_lock lock(channel_mutex_);
  auto& slot = pairs_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(size_) +
                      static_cast<std::size_t>(dst)];
  PairChannels* pair = slot.load(std::memory_order_relaxed);
  if (pair == nullptr) {
    pair_owner_.push_back(std::make_unique<PairChannels>());
    pair = pair_owner_.back().get();
    slot.store(pair, std::memory_order_release);
  }
  auto& entry = pair->keys[static_cast<std::size_t>(key)];
  Channel* ch = entry.load(std::memory_order_relaxed);
  if (ch == nullptr) {
    auto& owned = inbound_[static_cast<std::size_t>(dst)];
    owned.push_back(std::make_unique<Channel>());
    ch = owned.back().get();
    entry.store(ch, std::memory_order_release);
  }
  return *ch;
}

void World::reset_channels_into(int rank) {
  const std::scoped_lock lock(channel_mutex_);
  for (const auto& ch : inbound_[static_cast<std::size_t>(rank)]) ch->reset();
}

void World::wake_channels_into(int rank) {
  const std::scoped_lock lock(channel_mutex_);
  for (const auto& ch : inbound_[static_cast<std::size_t>(rank)]) ch->wake();
}

JobContext::JobContext(World& world, std::vector<int> ranks)
    : world_(world),
      ranks_(std::move(ranks)),
      inverse_(static_cast<std::size_t>(world.size()), -1),
      barrier_(static_cast<int>(ranks_.size())),
      trace_(static_cast<int>(ranks_.size())) {
  if (ranks_.empty()) {
    throw std::invalid_argument("JobContext: rank set must be non-empty");
  }
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    const int r = ranks_[i];
    if (r < 0 || r >= world.size()) {
      throw std::invalid_argument("JobContext: rank outside the World");
    }
    if (inverse_[static_cast<std::size_t>(r)] != -1) {
      throw std::invalid_argument("JobContext: duplicate rank in set");
    }
    inverse_[static_cast<std::size_t>(r)] = static_cast<int>(i);
  }
}

void JobContext::begin() {
  for (const int r : ranks_) {
    world_.mailbox(r).reset();
    // A channel into r has its producer in the same job as r, so no
    // sibling job is inside it.
    world_.reset_channels_into(r);
  }
  barrier_.reset(nprocs());
  trace_.reset();
  aborted_.store(false, std::memory_order_relaxed);
  cancel_requested_.store(false, std::memory_order_relaxed);
}

void JobContext::abort() {
  // Raise the flag before waking: a channel created after the wake pass
  // below is first waited on after this store, so its waiter sees it.
  aborted_.store(true, std::memory_order_seq_cst);
  barrier_.abort();
  for (const int r : ranks_) {
    world_.mailbox(r).abort();
    world_.wake_channels_into(r);
  }
}

std::uint64_t JobContext::progress_total() const noexcept {
  std::uint64_t total = 0;
  for (const int r : ranks_) total += world_.progress(r);
  return total;
}

}  // namespace ppa::mpl
