#include "mpl/world.hpp"

#include <stdexcept>

namespace ppa::mpl {

World::World(int size) : World(size, std::make_shared<TagSpace>()) {}

World::World(int size, std::shared_ptr<TagSpace> tags)
    : size_(size),
      tags_(std::move(tags)),
      progress_(size > 0 ? static_cast<std::size_t>(size) : 1) {
  if (size <= 0) throw std::invalid_argument("World size must be positive");
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
  for (const int r : ranks_) world_.mailbox(r).reset();
  barrier_.reset(nprocs());
  trace_.reset();
  cancel_requested_.store(false, std::memory_order_relaxed);
}

void JobContext::abort() {
  barrier_.abort();
  for (const int r : ranks_) world_.mailbox(r).abort();
}

std::uint64_t JobContext::progress_total() const noexcept {
  std::uint64_t total = 0;
  for (const int r : ranks_) total += world_.progress(r);
  return total;
}

}  // namespace ppa::mpl
