// ppa/core/pipeline.hpp
//
// The pipeline/stream archetype: a linear graph of stages through which an
// unbounded stream of items flows. This is the shape of continuous-service
// workloads (a request stream through parse → compute → respond), where the
// one-shot archetypes (one-deep D&C, mesh-spectral) do not fit: there is no
// final "gather the answer" — the computation is the steady state.
//
// A pipeline is composed from four combinators with operator| (the
// composable stage-combinator style of Braun et al., "Arrows for Parallel
// Computation"):
//
//   auto plan = pipeline::source(pull)        // () -> std::optional<T>
//             | pipeline::stage(f)            // T -> U, or T -> std::optional<U>
//             | pipeline::farm(k, make, pipeline::ordered)  // parallel stage
//             | pipeline::sink(consume);      // T -> void
//
// A *farm* replicates a serial stage k ways. Following the state-access
// patterns of Danelutto et al. ("State access patterns in embarrassingly
// parallel computations"), farm state is *replicated per worker*: the
// factory `make()` is called once per worker and each replica mutates only
// its own state. A worker may additionally expose
// `std::vector<Out> flush()`, called once at end-of-stream, to emit its
// accumulated local state (the map+reduce-at-drain pattern); because flush
// items surface in worker-completion order, they must be merged
// commutatively by the consumer. Which worker processes which item is
// driver-specific, so farm programs must be assignment-independent:
// stateless workers (any farm), or local accumulation merged commutatively
// (unordered farms).
//
// Ordering: an `ordered` farm re-emits results in input order (its output
// is indistinguishable from the serial stage it replicates); an `unordered`
// farm emits in completion order. In `run_process`, an ordered farm's
// successor must be a serial stage or the sink (the reordering point needs
// a single consumer), and no unordered farm may appear upstream of an
// ordered one (wire-level resequencing needs a seq-ordered input stream);
// both violations throw std::logic_error on every rank.
//
// One stream engine: each node role (source, stage, farm replica, sink) is
// one loop written against an edge concept,
//
//   tx.send(seq, flags, items), tx.send_eos(),
//   rx.recv() -> std::optional<detail::Batch<Item>>, rx.ack(batch),
//
// and the parallel drivers differ only in the edge transport under it.
// Both run the same slot layout, node_widths(): one slot per serial node,
// `width` slots per farm, each replica slot owning its worker.
//
//   run_sequential()  — plain pull loop, the paper's "debug in the
//                       sequential domain" mode; no queues, no threads.
//   run_threaded(cfg) — one std::jthread per slot; each edge is an
//                       in-process detail::Channel with blocking
//                       backpressure (occupancy never exceeds
//                       cfg.queue_capacity items — instrumented by RunStats
//                       high-water marks); items move in batches of
//                       cfg.batch; an ordered farm's output channel admits
//                       batches in input order.
//   run_process(p)    — SPMD: one rank per slot, and every edge gets a
//                       dedicated mailbox tag pair from the world's
//                       recyclable tag space (rank 0 reserves an RAII
//                       TagBlock, the world agrees by broadcast, the block
//                       is released when the run ends). Flow control is
//                       credit-based: a producer spends one credit per
//                       batch sent to a consumer and the consumer returns
//                       the credit only after the batch is fully processed,
//                       so per-edge in-flight data is bounded by the same
//                       queue_capacity/batch budget the threaded channels
//                       enforce. Batches carry a [seq, flags, count]
//                       header; ordered-farm output is resequenced at the
//                       consuming rank.
//   run_engine(sched) — run_process submitted as one job through an
//                       mpl::Scheduler (scheduler.hpp) over a persistent
//                       engine: back-to-back runs reuse warm rank threads,
//                       mailbox lanes and recycled tag blocks — the
//                       serving shape for request streams.
//
// Deterministic programs produce identical results on every driver;
// unordered-farm output is the same multiset.
//
// Exception contract: the first exception thrown by any stage (any driver)
// is rethrown exactly once from the run_* call, after shutdown has drained:
// every channel is cancelled and every slot thread joins (threaded), or the
// SPMD world aborts and joins (run_process, via spmd_run's machinery).
//
// Thread-safety: runs must not overlap. A run *consumes* the source
// callable's captured state (farm workers are re-made per run, the source
// is not): re-running a plan whose source has terminated yields an empty
// stream, so construct a fresh plan per run unless the source is
// deliberately resumable. For run_process, construct the plan inside the
// SPMD body (one plan per rank): roles are disjoint across ranks, but the
// combinator callables themselves are not synchronized.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/graph_error.hpp"
#include "mpl/job.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/process.hpp"

namespace ppa::pipeline {

/// Tuning knobs shared by the threaded and SPMD drivers.
struct Config {
  /// Bound on each edge's occupancy, in items. The threaded driver blocks
  /// producers at this bound; the SPMD driver derives the per-edge credit
  /// budget from it.
  std::size_t queue_capacity = 256;
  /// Items transferred per batch (clamped to queue_capacity).
  std::size_t batch = 16;
};

/// Per-edge instrumentation from a threaded run.
struct QueueStats {
  std::size_t capacity = 0;    ///< configured bound (items)
  std::size_t high_water = 0;  ///< max observed occupancy (items)
  std::uint64_t batches = 0;   ///< non-empty batches that crossed the edge
};

/// Result of run_threaded: one entry per edge, source-to-sink.
struct RunStats {
  std::vector<QueueStats> queues;
};

/// Farm output-ordering policies (tag types, see farm()).
struct ordered_t {};
struct unordered_t {};
inline constexpr ordered_t ordered{};
inline constexpr unordered_t unordered{};

// --------------------------------------------------------------- builder --

template <typename F>
struct SourceNode {
  F fn;  ///< () -> std::optional<Item>; nullopt ends the stream
};

template <typename F>
struct StageNode {
  F fn;  ///< Item -> Out, or Item -> std::optional<Out> (nullopt filters)
};

template <typename MW>
struct FarmNode {
  int width;        ///< worker replicas (>= 1)
  bool ordered;     ///< re-emit in input order?
  MW make_worker;   ///< () -> Worker; Worker: Item -> Out / std::optional<Out>
};

template <typename F>
struct SinkNode {
  F fn;  ///< Item -> void
};

template <typename F>
[[nodiscard]] SourceNode<std::decay_t<F>> source(F&& fn) {
  return {std::forward<F>(fn)};
}
template <typename F>
[[nodiscard]] StageNode<std::decay_t<F>> stage(F&& fn) {
  return {std::forward<F>(fn)};
}
/// `width` is clamped to at least one replica (a zero-width farm would
/// otherwise hang the threaded driver and divide by zero sequentially).
template <typename MW>
[[nodiscard]] FarmNode<std::decay_t<MW>> farm(int width, MW&& make_worker,
                                              ordered_t) {
  return {std::max(width, 1), true, std::forward<MW>(make_worker)};
}
template <typename MW>
[[nodiscard]] FarmNode<std::decay_t<MW>> farm(int width, MW&& make_worker,
                                              unordered_t) {
  return {std::max(width, 1), false, std::forward<MW>(make_worker)};
}
template <typename F>
[[nodiscard]] SinkNode<std::decay_t<F>> sink(F&& fn) {
  return {std::forward<F>(fn)};
}

namespace detail {

/// The node name a GraphShapeError reports: "source", "sink", "stage#j" or
/// "farm#j (ordered|unordered)", where j is the node's index in the graph
/// (source = 0, sink = n_nodes - 1). Defined in pipeline.cpp.
[[nodiscard]] std::string node_label(std::size_t index, std::size_t n_nodes,
                                     bool is_farm, bool is_ordered);

// ------------------------------------------------------------ type plumbing

template <typename T>
struct unwrap_optional {
  using type = T;
  static constexpr bool is_optional = false;
};
template <typename T>
struct unwrap_optional<std::optional<T>> {
  using type = T;
  static constexpr bool is_optional = true;
};

template <typename Node>
inline constexpr bool is_farm_node = false;
template <typename MW>
inline constexpr bool is_farm_node<FarmNode<MW>> = true;

/// The item type a node emits given its input item type.
template <typename Node, typename In>
struct node_output;
template <typename F, typename In>
struct node_output<StageNode<F>, In> {
  using raw = std::invoke_result_t<F&, In&&>;
  using type = typename unwrap_optional<raw>::type;
};
template <typename MW, typename In>
struct node_output<FarmNode<MW>, In> {
  using worker = std::decay_t<std::invoke_result_t<MW&>>;
  using raw = std::invoke_result_t<worker&, In&&>;
  using type = typename unwrap_optional<raw>::type;
};
template <typename Node, typename In>
using node_output_t = typename node_output<Node, In>::type;

template <typename MW>
using farm_worker_t = std::decay_t<std::invoke_result_t<MW&>>;

/// Does the farm worker expose an end-of-stream flush()?
template <typename W, typename Out>
concept HasFlush = requires(W& w) {
  { w.flush() } -> std::same_as<std::vector<Out>>;
};

/// A worker with *any* flush() member must match the exact HasFlush
/// signature — otherwise a typo'd return type would silently skip the
/// flush in every driver, dropping all accumulated worker state. Called at
/// each driver's flush site so the mismatch is a compile error instead.
template <typename W, typename Out>
constexpr void assert_flush_signature() {
  if constexpr (requires(W& w) { w.flush(); }) {
    static_assert(HasFlush<W, Out>,
                  "farm worker flush() must return std::vector<Out> where Out "
                  "is the farm's output item type");
  }
}

// ------------------------------------------------------------ error slot --

/// First-exception capture shared by all threads of a run.
class ErrorSlot {
 public:
  void record(std::exception_ptr e) noexcept {
    const std::lock_guard<std::mutex> lk(mutex_);
    if (!error_) {
      error_ = std::move(e);
      set_.store(true, std::memory_order_release);
    }
  }
  [[nodiscard]] bool set() const noexcept {
    return set_.load(std::memory_order_acquire);
  }
  void rethrow_if_set() {
    if (!set()) return;
    std::exception_ptr e;
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      e = std::exchange(error_, nullptr);
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
  std::atomic<bool> set_{false};
};

// ------------------------------------------------------------ edge batch --

inline constexpr std::uint32_t kFlagEos = 1u;        ///< producer finished
inline constexpr std::uint32_t kFlagUnordered = 2u;  ///< bypass ordering

/// One batch as an edge's consumer receives it from rx.recv().
template <typename Item>
struct Batch {
  std::uint64_t seq = 0;  ///< SPMD: the source's seq; in-process: pop stamp
  std::uint32_t flags = 0;
  int from = -1;  ///< SPMD producer rank (credit return address)
  std::vector<Item> items;
};

// ------------------------------------------------------ in-process edge --

/// Shape of one in-process edge (one constructor argument, so a tuple of
/// channels can be built in place).
struct ChannelShape {
  std::size_t capacity;  ///< occupancy bound, in items
  int producers;         ///< EOS markers that end the stream
  bool ordered;          ///< the producer is an ordered farm
};

/// In-process transport of one pipeline edge (run_threaded): a bounded
/// MPMC channel of item batches. Occupancy is counted in *items*; send
/// blocks while the batch would exceed the capacity (a batch larger than
/// the whole capacity is admitted only into an empty channel, so progress
/// is always possible), and the item count drops at recv, so ack is a
/// no-op. recv stamps each batch with the channel's pop index and ends the
/// stream once every producer has sent EOS and the queue has drained.
///
/// When the producer is an ordered farm, sequenced sends are admitted in
/// stamp order: the replica holding stamp s (from its input channel) waits
/// until s is the channel's turn, and an empty result just advances the
/// turn. Stamps are handed out at recv, so every earlier stamp is held by
/// a replica that is already running — the holder of the lowest one always
/// proceeds, and admission never deadlocks. Each replica holds at most one
/// stamp, so the waiting stamps lie in [turn, turn + producers) and a turn
/// wakes exactly its holder, on condition variable s % producers. Flush
/// output (kFlagUnordered) bypasses the turn. cancel() releases every
/// waiter; a cancelled send or recv throws mpl::JobCancelled, as a
/// cancelled SPMD edge does.
template <typename Item>
class Channel {
 public:
  explicit Channel(const ChannelShape& shape)
      : turn_cvs_(shape.ordered ? static_cast<std::size_t>(shape.producers) : 0),
        capacity_(shape.capacity),
        eos_remaining_(shape.producers) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(std::uint64_t seq, std::uint32_t flags, std::vector<Item> items) {
    const bool in_turn = !turn_cvs_.empty() && (flags & kFlagUnordered) == 0;
    if (!in_turn && items.empty()) return;
    std::unique_lock lock(mutex_);
    if (in_turn) {
      turn_cv(seq).wait(lock, [&] { return cancelled_ || seq == turn_; });
    }
    not_full_.wait(lock, [&] { return cancelled_ || fits(items.size()); });
    if (cancelled_) throw mpl::JobCancelled{};
    if (in_turn) turn_cv(++turn_).notify_one();
    if (items.empty()) return;
    items_ += items.size();
    high_water_ = std::max(high_water_, items_);
    ++batches_;
    queue_.push_back(std::move(items));
    not_empty_.notify_one();
  }

  void send_eos() {
    const std::lock_guard lock(mutex_);
    if (--eos_remaining_ == 0) not_empty_.notify_all();
  }

  std::optional<Batch<Item>> recv() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] {
      return cancelled_ || eos_remaining_ == 0 || !queue_.empty();
    });
    if (cancelled_) throw mpl::JobCancelled{};
    if (queue_.empty()) return std::nullopt;  // every producer done, drained
    Batch<Item> b;
    b.seq = pops_++;
    b.items = std::move(queue_.front());
    queue_.pop_front();
    items_ -= b.items.size();
    not_full_.notify_one();
    return b;
  }

  void ack(const Batch<Item>&) const noexcept {}

  void cancel() {
    const std::lock_guard lock(mutex_);
    cancelled_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
    for (auto& cv : turn_cvs_) cv.notify_all();
  }

  [[nodiscard]] QueueStats stats() const {
    const std::lock_guard lock(mutex_);
    return {capacity_, high_water_, batches_};
  }

 private:
  [[nodiscard]] bool fits(std::size_t n) const {
    return items_ + n <= capacity_ || items_ == 0;
  }
  std::condition_variable& turn_cv(std::uint64_t seq) {
    return turn_cvs_[seq % turn_cvs_.size()];
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_, not_empty_;
  std::vector<std::condition_variable> turn_cvs_;  ///< ordered producer only
  std::deque<std::vector<Item>> queue_;
  std::size_t capacity_;
  std::size_t items_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t turn_ = 0;
  int eos_remaining_;
  bool cancelled_ = false;
};

/// Deliver a worker's end-of-stream flush output in batch-sized chunks.
template <typename Out, typename Deliver>
void for_each_flush_chunk(std::vector<Out> flushed, std::size_t batch,
                          const Deliver& deliver) {
  for (std::size_t off = 0; off < flushed.size(); off += batch) {
    const std::size_t n = std::min(batch, flushed.size() - off);
    deliver(std::vector<Out>(
        std::make_move_iterator(flushed.begin() + static_cast<std::ptrdiff_t>(off)),
        std::make_move_iterator(flushed.begin() +
                                static_cast<std::ptrdiff_t>(off + n))));
  }
}

// ------------------------------------------------------- SPMD wire layer --

/// Batch message header (followed by `count` items, memcpy'd).
struct WireHeader {
  std::uint64_t seq = 0;
  std::uint32_t flags = 0;
  std::uint32_t count = 0;
};

template <typename Item>
std::vector<std::byte> pack_batch(std::uint64_t seq, std::uint32_t flags,
                                  const std::vector<Item>& items) {
  static_assert(mpl::Wire<Item>, "run_process items must be trivially copyable");
  WireHeader h{seq, flags, static_cast<std::uint32_t>(items.size())};
  std::vector<std::byte> bytes(sizeof(WireHeader) + items.size() * sizeof(Item));
  std::memcpy(bytes.data(), &h, sizeof h);
  if (!items.empty()) {
    std::memcpy(bytes.data() + sizeof h, items.data(), items.size() * sizeof(Item));
  }
  return bytes;
}

template <typename Item>
Batch<Item> unpack_batch(const std::vector<std::byte>& bytes) {
  Batch<Item> b;
  WireHeader h;
  assert(bytes.size() >= sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  b.seq = h.seq;
  b.flags = h.flags;
  b.items.resize(h.count);
  assert(bytes.size() == sizeof h + h.count * sizeof(Item));
  if (h.count > 0) {
    std::memcpy(b.items.data(), bytes.data() + sizeof h, h.count * sizeof(Item));
  }
  return b;
}

/// Producer end of one pipeline edge: routes batches to consumers that have
/// granted credit, blocking on credit return when the budget is spent. One
/// credit corresponds to one in-flight batch toward that consumer, so the
/// edge's total in-flight data is bounded by credits · batch items.
template <typename Item>
class EdgeSender {
 public:
  EdgeSender(mpl::Process& p, int data_tag, int credit_tag,
             std::vector<int> consumers, std::uint32_t credit_per_consumer)
      : p_(p),
        data_tag_(data_tag),
        credit_tag_(credit_tag),
        budget_(credit_per_consumer),
        consumers_(std::move(consumers)),
        credits_(consumers_.size(), credit_per_consumer) {}

  void send(std::uint64_t seq, std::uint32_t flags, const std::vector<Item>& items) {
    // Cancellation propagates through the flow control: a producer blocked
    // in a credit wait is released by the abort (WorldAborted from recv),
    // and one that is busy *computing* between batches stops here, at its
    // next send, instead of filling downstream credit it no longer needs.
    if (p_.cancelled()) throw mpl::JobCancelled{};
    std::size_t c = 0;
    if (consumers_.size() == 1) {
      while (credits_[0] == 0) refill();
    } else {
      for (;;) {
        bool found = false;
        for (std::size_t k = 0; k < consumers_.size(); ++k) {
          const std::size_t idx = (round_robin_ + k) % consumers_.size();
          if (credits_[idx] > 0) {
            c = idx;
            round_robin_ = idx + 1;
            found = true;
            break;
          }
        }
        if (found) break;
        refill();
      }
    }
    --credits_[c];
    p_.send(consumers_[c], data_tag_, pack_batch(seq, flags, items));
  }

  /// End of stream: every consumer gets one EOS marker (credit-exempt),
  /// then the outstanding credit returns are drained. The drain leaves this
  /// edge's credit lane empty when the producer's role ends, which is what
  /// makes the run's tag block safe to *recycle* (see run_process): a
  /// reused credit tag can never observe a stale grant from a previous run.
  void send_eos() {
    for (const int c : consumers_) {
      p_.send(c, data_tag_, pack_batch<Item>(0, kFlagEos, {}));
    }
    // Terminates: every in-flight batch is acked by its consumer after
    // processing, and consumers process everything before honoring EOS.
    const auto outstanding = [this] {
      std::uint64_t spent = 0;
      for (const auto c : credits_) spent += budget_ - c;
      return spent;
    };
    while (outstanding() > 0) refill();
  }

 private:
  void refill() {
    const int src = consumers_.size() == 1 ? consumers_[0] : mpl::kAnySource;
    auto [from, grant] = p_.recv_any<std::uint32_t>(src, credit_tag_);
    for (std::size_t i = 0; i < consumers_.size(); ++i) {
      if (consumers_[i] == from) {
        assert(grant.size() == 1);
        credits_[i] += grant.front();
        return;
      }
    }
    assert(false && "credit from a rank that is not a consumer of this edge");
  }

  mpl::Process& p_;
  int data_tag_;
  int credit_tag_;
  std::uint32_t budget_;  ///< initial credits per consumer
  std::vector<int> consumers_;
  std::vector<std::uint32_t> credits_;
  std::size_t round_robin_ = 0;
};

/// Consumer end of one pipeline edge. recv() delivers the next batch —
/// resequenced into input order when the edge leaves an ordered farm — and
/// nullopt once every producer has sent EOS. The caller must ack() each
/// delivered batch after processing it; that returns the credit to the
/// producer, which is what makes the flow control end-to-end (a slow
/// consumer stalls its producers, transitively back to the source).
template <typename Item>
class EdgeReceiver {
 public:
  EdgeReceiver(mpl::Process& p, int data_tag, int credit_tag,
               std::vector<int> producers, bool resequence)
      : p_(p),
        data_tag_(data_tag),
        credit_tag_(credit_tag),
        producers_(std::move(producers)),
        eos_remaining_(producers_.size()),
        resequence_(resequence) {}

  std::optional<Batch<Item>> recv() {
    for (;;) {
      // See EdgeSender::send: consumers observe cancellation between
      // batches; a consumer blocked waiting for data is released by the
      // accompanying abort instead.
      if (p_.cancelled()) throw mpl::JobCancelled{};
      if (resequence_ && !pending_.empty() && pending_.begin()->first == next_seq_) {
        Batch<Item> b = std::move(pending_.begin()->second);
        pending_.erase(pending_.begin());
        ++next_seq_;
        return b;
      }
      if (eos_remaining_ == 0) {
        assert(pending_.empty() && "ordered edge ended with a sequence gap");
        return std::nullopt;
      }
      const int src = producers_.size() == 1 ? producers_[0] : mpl::kAnySource;
      auto [from, bytes] = p_.recv_any<std::byte>(src, data_tag_);
      Batch<Item> b = unpack_batch<Item>(bytes);
      b.from = from;
      if (b.flags & kFlagEos) {
        --eos_remaining_;
        continue;
      }
      if (!resequence_ || (b.flags & kFlagUnordered)) return b;
      if (b.seq == next_seq_) {
        ++next_seq_;
        return b;
      }
      pending_.emplace(b.seq, std::move(b));
    }
  }

  /// Return the batch's credit to its producer (call after processing).
  void ack(const Batch<Item>& b) {
    p_.send_value<std::uint32_t>(b.from, credit_tag_, 1);
  }

 private:
  mpl::Process& p_;
  int data_tag_;
  int credit_tag_;
  std::vector<int> producers_;
  std::size_t eos_remaining_;
  bool resequence_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Batch<Item>> pending_;
};

/// Apply a stage/worker callable to every item of a batch, honoring
/// std::optional-filtering returns.
template <typename Out, typename Fn, typename In>
std::vector<Out> apply_batch(Fn& fn, std::vector<In> items) {
  std::vector<Out> out;
  out.reserve(items.size());
  for (auto& item : items) {
    using Raw = std::invoke_result_t<Fn&, In&&>;
    if constexpr (unwrap_optional<Raw>::is_optional) {
      auto r = fn(std::move(item));
      if (r) out.push_back(std::move(*r));
    } else {
      out.push_back(fn(std::move(item)));
    }
  }
  return out;
}

}  // namespace detail

// ------------------------------------------------------------------ plan --

template <typename SrcF, typename SinkF, typename... Mids>
class Plan {
  static constexpr std::size_t kMids = sizeof...(Mids);
  static constexpr std::size_t kEdges = kMids + 1;
  static constexpr std::size_t kNodes = kMids + 2;

  using MidTuple = std::tuple<Mids...>;
  template <std::size_t I>
  using mid_t = std::tuple_element_t<I, MidTuple>;

  using SrcItem = typename detail::unwrap_optional<
      std::invoke_result_t<SrcF&>>::type;

  template <std::size_t I>
  static constexpr auto edge_type_helper() {
    if constexpr (I == 0) {
      return std::type_identity<SrcItem>{};
    } else {
      using Prev = typename decltype(edge_type_helper<I - 1>())::type;
      return std::type_identity<detail::node_output_t<mid_t<I - 1>, Prev>>{};
    }
  }
  /// Item type flowing on edge I (edge 0 leaves the source; edge kMids
  /// enters the sink).
  template <std::size_t I>
  using edge_t = typename decltype(edge_type_helper<I>())::type;

 public:
  Plan(SourceNode<SrcF> src, MidTuple mids, SinkNode<SinkF> snk)
      : src_(std::move(src)), mids_(std::move(mids)), sink_(std::move(snk)) {}

  /// Ranks run_process needs: one per serial node, `width` per farm.
  [[nodiscard]] int ranks_required() const { return total_width(node_kinds()); }

  /// Width metadata: ranks per node, source-to-sink (serial nodes 1, farms
  /// their replica count). This is what the compose layer (core/compose.hpp)
  /// reads to check a graph against an engine's capacity.
  [[nodiscard]] std::vector<int> node_widths() const {
    std::vector<int> widths;
    widths.reserve(kNodes);
    for (const NodeKind& kind : node_kinds()) widths.push_back(kind.width);
    return widths;
  }

  /// Nodes in the graph, counting source and sink.
  [[nodiscard]] static constexpr std::size_t node_count() noexcept {
    return kNodes;
  }

  /// The name GraphShapeError reports for node `j` (source = 0).
  [[nodiscard]] std::string node_label(std::size_t j) const {
    const NodeKind kind = node_kinds()[j];
    return detail::node_label(j, kNodes, kind.farm, kind.ordered);
  }

  // ------------------------------------------------------- sequential --

  /// Version-1 execution: a plain pull loop. Farm items are dealt to worker
  /// replicas round-robin; farm flushes run at end-of-stream in pipeline
  /// and worker order.
  void run_sequential() {
    auto states = make_replicas(std::make_index_sequence<kMids>{});
    while (auto item = src_.fn()) {
      feed_seq<0>(states, std::move(*item));
    }
    flush_seq<0>(states);
  }

  // --------------------------------------------------------- threaded --

  RunStats run_threaded(Config cfg = {}) {
    normalize(cfg);
    return run_threaded_impl(cfg, std::make_index_sequence<kEdges>{});
  }

  // ------------------------------------------------------------- SPMD --

  /// SPMD driver; call from every rank of the world (collectively). Ranks
  /// beyond ranks_required() idle through the run. Throws on every rank if
  /// the world is too small or an ordered farm feeds another farm.
  void run_process(mpl::Process& p, Config cfg = {}) {
    normalize(cfg);
    const Kinds kinds = node_kinds();
    validate_process_layout(kinds);
    const int required = total_width(kinds);
    if (p.size() < required) {
      // Name the first node whose rank block does not fit the world.
      int acc = 0;
      std::size_t offender = kNodes - 1;
      for (std::size_t j = 0; j < kNodes; ++j) {
        acc += kinds[j].width;
        if (acc > p.size()) {
          offender = j;
          break;
        }
      }
      throw GraphShapeError(node_label(offender), required, p.size(),
                            "run_process: world too small for the stage graph");
    }
    // Every edge gets a private [data, credit] tag pair; rank 0 alone
    // reserves a fresh block from the *world's* recyclable tag space and
    // the world agrees on it by broadcast, so concurrent/successive
    // pipelines never collide (and the tag space is spent once per run, not
    // once per rank). The block is released when rank 0's role completes:
    // the EOS credit drain leaves every lane of the block empty by the time
    // any rank finishes, and the next reserve on this world happens only
    // after the next run's broadcast — i.e. after every rank has left this
    // run — so recycling can never collide with in-flight traffic. On a
    // persistent engine this is what lets an unbounded stream of pipeline
    // jobs run on one World without exhausting the tag space.
    int reserved = 0;
    mpl::TagBlock block;
    if (p.rank() == 0) {
      block = p.world().reserve_tags(2 * static_cast<int>(kEdges));
      reserved = block.base();
    }
    const int tag_base = p.broadcast_value(reserved, 0);
    std::vector<int> base(kNodes);
    for (std::size_t j = 1; j < kNodes; ++j) base[j] = base[j - 1] + kinds[j - 1].width;
    run_process_dispatch(p, cfg, kinds, base, tag_base,
                         std::make_index_sequence<kNodes>{});
  }

  /// Submit this plan as one SPMD job through a space-sharing Scheduler
  /// (mpl/scheduler.hpp): every rank runs run_process, and back-to-back
  /// submissions reuse warm rank threads, mailbox lanes and recycled tag
  /// blocks. A narrow pipeline runs beside other narrow jobs on a wide
  /// engine and queues (priority-ordered, bounded) when ranks are busy.
  /// `nprocs` defaults to exactly ranks_required(). Construct a fresh plan
  /// per run unless the source is deliberately resumable. `options`
  /// attaches a deadline / cancel token / watchdog (mpl/job.hpp): on
  /// cancellation, stages blocked in credit or data waits release via the
  /// abort. A deadline counts from submission, queueing time included.
  mpl::TraceSnapshot run_engine(mpl::Scheduler& scheduler,
                                Config cfg = {}, int nprocs = 0,
                                mpl::Priority priority = mpl::Priority::kNormal,
                                const mpl::JobOptions& options = {}) {
    if (nprocs <= 0) nprocs = ranks_required();
    return scheduler.run(
        nprocs, [&](mpl::Process& p) { run_process(p, cfg); }, priority, options);
  }

 private:
  static void normalize(Config& cfg) {
    if (cfg.queue_capacity == 0) cfg.queue_capacity = 1;
    if (cfg.batch == 0) cfg.batch = 1;
    if (cfg.batch > cfg.queue_capacity) cfg.batch = cfg.queue_capacity;
  }

  /// What graph node j (source = 0, sink = kNodes - 1) is: its rank width
  /// (1, or a farm's replica count), and whether it is a farm and an
  /// ordered one. Built once per run; every driver reads this table.
  struct NodeKind {
    int width = 1;
    bool farm = false;
    bool ordered = false;
  };
  using Kinds = std::array<NodeKind, kNodes>;

  [[nodiscard]] Kinds node_kinds() const {
    Kinds kinds{};
    [&]<std::size_t... Is>(std::index_sequence<Is...>) {
      ([&] {
         if constexpr (detail::is_farm_node<mid_t<Is>>) {
           const auto& farm = std::get<Is>(mids_);
           kinds[Is + 1] = NodeKind{farm.width, true, farm.ordered};
         }
       }(),
       ...);
    }(std::make_index_sequence<kMids>{});
    return kinds;
  }

  static int total_width(const Kinds& kinds) {
    int total = 0;
    for (const NodeKind& kind : kinds) total += kind.width;
    return total;
  }

  /// An ordered farm sends a batch for every input seq, even an empty one,
  /// and so does every node upstream of it: its reordering point needs the
  /// numbering contiguous. Elsewhere an empty result sends nothing.
  static bool keeps_empties(const Kinds& kinds, std::size_t node) {
    return std::any_of(kinds.begin() + static_cast<std::ptrdiff_t>(node), kinds.end(),
                       [](const NodeKind& kind) { return kind.ordered; });
  }

  void validate_process_layout(const Kinds& kinds) const {
    // Two wire-level constraints on ordered farms (both irrelevant to the
    // threaded driver, whose channel orders an ordered farm's output at the
    // producer side, by the stamps of the farm's own input channel):
    //
    //  * the successor must be a serial stage or the sink — resequencing
    //    needs a single consuming rank;
    //  * the input stream must still be in sequence order, i.e. no
    //    unordered farm may appear upstream. Resequencing (and its credit
    //    deadlock-freedom argument) relies on batches entering the ordered
    //    farm's workers in global seq order; an unordered farm scrambles
    //    the seqs, after which a withheld out-of-order ack can starve the
    //    producer holding the missing seq. ("Ordered after unordered" is
    //    semantically vacuous anyway: the order it would restore is the
    //    nondeterministic completion order.)
    std::size_t bad_successor = kNodes;    // node index of the offending farm
    std::size_t bad_predecessor = kNodes;
    bool in_order = true;  // is the stream still in source-seq order here?
    for (std::size_t j = 1; j + 1 < kNodes; ++j) {
      if (!kinds[j].farm) continue;
      if (!kinds[j].ordered) {
        in_order = false;
        continue;
      }
      if (!in_order && bad_predecessor == kNodes) bad_predecessor = j;
      if (kinds[j + 1].width > 1 && bad_successor == kNodes) bad_successor = j;
    }
    if (bad_successor < kNodes) {
      throw GraphShapeError(
          node_label(bad_successor), 1,
          kinds[bad_successor + 1].width,
          "run_process: an ordered farm must feed a serial stage or the sink "
          "(its resequencing point needs a single consuming rank)");
    }
    if (bad_predecessor < kNodes) {
      throw GraphShapeError(
          node_label(bad_predecessor), 0, 0,
          "run_process: an ordered farm cannot follow an unordered farm (its "
          "input stream is no longer in sequence order)");
    }
  }

  // ------------------------------------------------- sequential driver --

  /// A farm's worker replicas, one per slot (run_threaded), or dealt items
  /// round-robin (run_sequential).
  template <typename W>
  struct FarmReplicas {
    std::vector<W> workers;
    std::uint64_t next = 0;
  };

  template <std::size_t... Is>
  auto make_replicas(std::index_sequence<Is...>) {
    return std::make_tuple(make_replica_set<Is>()...);
  }
  template <std::size_t I>
  auto make_replica_set() {
    if constexpr (detail::is_farm_node<mid_t<I>>) {
      auto& node = std::get<I>(mids_);
      using W = detail::farm_worker_t<decltype(node.make_worker)>;
      FarmReplicas<W> state;
      state.workers.reserve(static_cast<std::size_t>(node.width));
      for (int k = 0; k < node.width; ++k) state.workers.push_back(node.make_worker());
      return state;
    } else {
      return std::monostate{};
    }
  }

  template <std::size_t I, typename States, typename T>
  void feed_seq(States& states, T&& item) {
    if constexpr (I == kMids) {
      sink_.fn(std::forward<T>(item));
    } else {
      auto& node = std::get<I>(mids_);
      if constexpr (detail::is_farm_node<mid_t<I>>) {
        auto& state = std::get<I>(states);
        auto& worker = state.workers[state.next++ % state.workers.size()];
        forward_seq<I>(states, worker, std::forward<T>(item));
      } else {
        forward_seq<I>(states, node.fn, std::forward<T>(item));
      }
    }
  }
  template <std::size_t I, typename States, typename Fn, typename T>
  void forward_seq(States& states, Fn& fn, T&& item) {
    using Raw = std::invoke_result_t<Fn&, T&&>;
    if constexpr (detail::unwrap_optional<Raw>::is_optional) {
      auto r = fn(std::forward<T>(item));
      if (r) feed_seq<I + 1>(states, std::move(*r));
    } else {
      feed_seq<I + 1>(states, fn(std::forward<T>(item)));
    }
  }

  template <std::size_t I, typename States>
  void flush_seq(States& states) {
    if constexpr (I < kMids) {
      if constexpr (detail::is_farm_node<mid_t<I>>) {
        auto& state = std::get<I>(states);
        using W = typename std::decay_t<decltype(state.workers)>::value_type;
        detail::assert_flush_signature<W, edge_t<I + 1>>();
        if constexpr (detail::HasFlush<W, edge_t<I + 1>>) {
          for (auto& worker : state.workers) {
            for (auto& out : worker.flush()) {
              feed_seq<I + 1>(states, std::move(out));
            }
          }
        }
      }
      flush_seq<I + 1>(states);
    }
  }

  // -------------------------------------------------------- node roles --
  //
  // Each role is one loop over the edge concept (see the file comment):
  // `rx` is the node's input edge and `tx` its output edge, a Channel under
  // run_threaded and an EdgeReceiver/EdgeSender under run_process.

  template <typename Tx>
  void source_role(const Config& cfg, Tx& tx) {
    std::vector<SrcItem> acc;
    acc.reserve(cfg.batch);
    std::uint64_t seq = 0;
    while (auto item = src_.fn()) {
      acc.push_back(std::move(*item));
      if (acc.size() >= cfg.batch) {
        tx.send(seq++, 0, std::move(acc));
        acc.clear();
        acc.reserve(cfg.batch);
      }
    }
    if (!acc.empty()) tx.send(seq++, 0, std::move(acc));
    tx.send_eos();
  }

  /// Mid node I: a serial stage (`fn` is its callable) or one farm replica
  /// (`fn` is the replica's own worker, flushed once at end of stream).
  template <std::size_t I, typename Fn, typename Rx, typename Tx>
  void mid_role(const Config& cfg, const Kinds& kinds, Fn& fn, Rx& rx, Tx& tx) {
    using Out = edge_t<I + 1>;
    const bool keep_empties = keeps_empties(kinds, I + 1);
    while (auto b = rx.recv()) {
      auto results = detail::apply_batch<Out>(fn, std::move(b->items));
      if (keep_empties || !results.empty()) {
        tx.send(b->seq, b->flags & detail::kFlagUnordered, std::move(results));
      }
      rx.ack(*b);
    }
    if constexpr (detail::is_farm_node<mid_t<I>>) {
      detail::assert_flush_signature<Fn, Out>();
      if constexpr (detail::HasFlush<Fn, Out>) {
        detail::for_each_flush_chunk(fn.flush(), cfg.batch, [&](std::vector<Out> chunk) {
          tx.send(0, detail::kFlagUnordered, std::move(chunk));
        });
      }
    }
    tx.send_eos();
  }

  template <typename Rx>
  void sink_role(Rx& rx) {
    while (auto b = rx.recv()) {
      for (auto& item : b->items) sink_.fn(std::move(item));
      rx.ack(*b);
    }
  }

  // --------------------------------------------------- threaded driver --

  /// One jthread per slot of node_widths() and one Channel per edge. Farm
  /// workers are made here, on the calling thread; replica slot k owns
  /// worker k. Edge E's producer is node E: when that is an ordered farm,
  /// the Channel admits in order.
  template <std::size_t... Es>
  RunStats run_threaded_impl(const Config& cfg, std::index_sequence<Es...>) {
    const Kinds kinds = node_kinds();
    std::tuple<detail::Channel<edge_t<Es>>...> channels{detail::ChannelShape{
        cfg.queue_capacity, kinds[Es].width, kinds[Es].ordered}...};
    auto replicas = make_replicas(std::make_index_sequence<kMids>{});
    detail::ErrorSlot error;
    const auto cancel_all = [&] { (std::get<Es>(channels).cancel(), ...); };
    {
      std::vector<std::jthread> threads;
      threads.reserve(static_cast<std::size_t>(total_width(kinds)));
      const auto spawn = [&](auto role) {
        threads.emplace_back([&error, &cancel_all, role] {
          try {
            role();
          } catch (...) {
            error.record(std::current_exception());
            cancel_all();
          }
        });
      };
      try {
        spawn([&] { source_role(cfg, std::get<0>(channels)); });
        [&]<std::size_t... Is>(std::index_sequence<Is...>) {
          ([&] {
             for (int k = 0; k < kinds[Is + 1].width; ++k) {
               spawn([&, k] {
                 mid_role<Is>(cfg, kinds, slot_fn<Is>(replicas, k),
                              std::get<Is>(channels), std::get<Is + 1>(channels));
               });
             }
           }(),
           ...);
        }(std::make_index_sequence<kMids>{});
        spawn([&] { sink_role(std::get<kMids>(channels)); });
      } catch (...) {  // a slot thread failed to start
        error.record(std::current_exception());
        cancel_all();
      }
    }  // jthreads join
    error.rethrow_if_set();
    return RunStats{{std::get<Es>(channels).stats()...}};
  }

  /// What slot k of mid node I runs: the stage callable, or farm replica
  /// k's worker.
  template <std::size_t I, typename Replicas>
  auto& slot_fn(Replicas& replicas, int k) {
    if constexpr (detail::is_farm_node<mid_t<I>>) {
      return std::get<I>(replicas).workers[static_cast<std::size_t>(k)];
    } else {
      return std::get<I>(mids_).fn;
    }
  }

  // ------------------------------------------------------- SPMD driver --

  template <std::size_t... Js>
  void run_process_dispatch(mpl::Process& p, const Config& cfg, const Kinds& kinds,
                            const std::vector<int>& base, int tag_base,
                            std::index_sequence<Js...>) {
    const int rank = p.rank();
    bool matched = false;
    ((matched = matched ||
                (rank >= base[Js] && rank < base[Js] + kinds[Js].width &&
                 (run_node_role<Js>(p, cfg, kinds, base, tag_base), true))),
     ...);
    (void)matched;  // ranks beyond the graph idle through the run
  }

  [[nodiscard]] static std::uint32_t pair_credit(const Config& cfg, int wprod,
                                                 int wcons) {
    const std::size_t cap_batches =
        std::max<std::size_t>(1, cfg.queue_capacity / cfg.batch);
    const auto fan = static_cast<std::size_t>(std::max(wprod, wcons));
    return static_cast<std::uint32_t>(std::max<std::size_t>(1, cap_batches / fan));
  }

  static std::vector<int> node_ranks(const Kinds& kinds, const std::vector<int>& base,
                                     std::size_t j) {
    std::vector<int> ranks(static_cast<std::size_t>(kinds[j].width));
    for (std::size_t k = 0; k < ranks.size(); ++k) {
      ranks[k] = base[j] + static_cast<int>(k);
    }
    return ranks;
  }

  /// Build the sender for edge E (producer: node E, consumer: node E+1).
  template <std::size_t E>
  detail::EdgeSender<edge_t<E>> make_sender(mpl::Process& p, const Config& cfg,
                                            const Kinds& kinds,
                                            const std::vector<int>& base,
                                            int tag_base) {
    return detail::EdgeSender<edge_t<E>>(
        p, tag_base + 2 * static_cast<int>(E), tag_base + 2 * static_cast<int>(E) + 1,
        node_ranks(kinds, base, E + 1),
        pair_credit(cfg, kinds[E].width, kinds[E + 1].width));
  }
  /// Build the receiver for edge E; it resequences when its producer,
  /// node E, is an ordered farm.
  template <std::size_t E>
  detail::EdgeReceiver<edge_t<E>> make_receiver(mpl::Process& p, const Kinds& kinds,
                                                const std::vector<int>& base,
                                                int tag_base) {
    return detail::EdgeReceiver<edge_t<E>>(
        p, tag_base + 2 * static_cast<int>(E), tag_base + 2 * static_cast<int>(E) + 1,
        node_ranks(kinds, base, E), kinds[E].ordered);
  }

  /// This rank's slot of node J: build its edges, then run the role.
  template <std::size_t J>
  void run_node_role(mpl::Process& p, const Config& cfg, const Kinds& kinds,
                     const std::vector<int>& base, int tag_base) {
    if constexpr (J == 0) {
      auto tx = make_sender<0>(p, cfg, kinds, base, tag_base);
      source_role(cfg, tx);
    } else if constexpr (J == kNodes - 1) {
      auto rx = make_receiver<kMids>(p, kinds, base, tag_base);
      sink_role(rx);
    } else {
      auto rx = make_receiver<J - 1>(p, kinds, base, tag_base);
      auto tx = make_sender<J>(p, cfg, kinds, base, tag_base);
      auto& node = std::get<J - 1>(mids_);
      if constexpr (detail::is_farm_node<mid_t<J - 1>>) {
        auto worker = node.make_worker();
        mid_role<J - 1>(cfg, kinds, worker, rx, tx);
      } else {
        mid_role<J - 1>(cfg, kinds, node.fn, rx, tx);
      }
    }
  }

  SourceNode<SrcF> src_;
  MidTuple mids_;
  SinkNode<SinkF> sink_;
};

// -------------------------------------------------------- composition ----

namespace detail {

/// A source followed by zero or more mid nodes; becomes a Plan at the sink.
template <typename SrcF, typename... Mids>
struct OpenPipe {
  SourceNode<SrcF> src;
  std::tuple<Mids...> mids;
};

}  // namespace detail

template <typename SrcF, typename F>
[[nodiscard]] auto operator|(SourceNode<SrcF> src, StageNode<F> s) {
  return detail::OpenPipe<SrcF, StageNode<F>>{std::move(src),
                                              std::tuple<StageNode<F>>{std::move(s)}};
}
template <typename SrcF, typename MW>
[[nodiscard]] auto operator|(SourceNode<SrcF> src, FarmNode<MW> f) {
  return detail::OpenPipe<SrcF, FarmNode<MW>>{std::move(src),
                                              std::tuple<FarmNode<MW>>{std::move(f)}};
}
template <typename SrcF, typename F>
[[nodiscard]] auto operator|(SourceNode<SrcF> src, SinkNode<F> snk) {
  return Plan<SrcF, F>(std::move(src), std::tuple<>{}, std::move(snk));
}
template <typename SrcF, typename... Mids, typename F>
[[nodiscard]] auto operator|(detail::OpenPipe<SrcF, Mids...> open, StageNode<F> s) {
  return detail::OpenPipe<SrcF, Mids..., StageNode<F>>{
      std::move(open.src),
      std::tuple_cat(std::move(open.mids), std::tuple<StageNode<F>>{std::move(s)})};
}
template <typename SrcF, typename... Mids, typename MW>
[[nodiscard]] auto operator|(detail::OpenPipe<SrcF, Mids...> open, FarmNode<MW> f) {
  return detail::OpenPipe<SrcF, Mids..., FarmNode<MW>>{
      std::move(open.src),
      std::tuple_cat(std::move(open.mids), std::tuple<FarmNode<MW>>{std::move(f)})};
}
template <typename SrcF, typename... Mids, typename F>
[[nodiscard]] auto operator|(detail::OpenPipe<SrcF, Mids...> open, SinkNode<F> snk) {
  return Plan<SrcF, F, Mids...>(std::move(open.src), std::move(open.mids),
                                std::move(snk));
}

}  // namespace ppa::pipeline
