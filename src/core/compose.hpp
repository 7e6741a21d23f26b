// ppa/core/compose.hpp
//
// Typed archetype composition: whole applications as checked combinator
// graphs. The archetypes stop being islands here — a pipeline stage can
// host an np-wide SPMD mesh solve, scheduled as a space-shared job on the
// warm engine, and the whole application is one typed graph:
//
//   auto g = compose::source(pull)                  // () -> optional<T>
//          | compose::stage(parse)                  // T -> U
//          | compose::engine_job(4, solve)          // (Process&, U) -> V on 4 ranks
//          | compose::engine_farm(3, 2, analyze,    // 3 replicas, each hosting
//                                 compose::unordered)  //   2-rank jobs
//          | compose::sink(emit);
//   g.run_sequential();                 // hosted jobs via warm spmd_run
//   g.run_threaded(cfg);                // slot threads + hosted spmd_run
//   g.run_scheduler(sched, cfg);        // hosted jobs space-share the engine
//
// The front-end is PR 4's operator| pipeline builder (core/pipeline.hpp):
// every compose combinator wraps the corresponding pipeline node, so the
// stage value-type threading that makes ill-typed pipelines fail to compile
// applies unchanged — composing a stage whose input type does not match its
// predecessor's output is a build-time error. What compose adds on top:
//
//  * Hosted stages. engine_job(np, body) lifts an SPMD body
//    `Out body(mpl::Process&, const In&)` into a pipeline stage: each
//    stream item runs the body as one np-wide job (rank 0's return value
//    continues downstream). engine_farm(width, np, body, tag) replicates a
//    hosted stage `width` ways — up to `width` concurrent np-rank jobs.
//    Determinism contract: body(item) must not depend on which replica ran
//    it (bodies receive identical inputs and np is fixed per node), so a
//    composed graph's output is bitwise-identical across all three drivers
//    for np-invariant bodies — the same bar every prior driver port met.
//  * Shape checking with typed errors. Rank-width metadata (NodeMeta) rides
//    every node; violations throw GraphShapeError (core/graph_error.hpp)
//    naming the offending node: a hosted node with np < 1 at combinator
//    call, an ordered farm downstream of an unordered one at graph build
//    (operator| with the sink), and a hosted np wider than the scheduler's
//    engine at run_scheduler — before anything runs.
//  * One deadline for the whole graph. run_scheduler's JobOptions are
//    anchored at the run's start (JobOptions::anchor): every hosted job is
//    charged against the remaining *graph* budget, queueing time included,
//    instead of each submission restarting the clock.
//
// Driver guidance: run_sequential is the debug mode (plain pull loop;
// hosted jobs still run np-wide via spmd_run's warm path). run_threaded
// overlaps stages but submits hosted jobs the same way. run_scheduler is
// the serving shape: hosted jobs from concurrent farm replicas space-share
// the engine in disjoint rank sets, with priority classes and the anchored
// deadline. There is deliberately no run_process for composed graphs — the
// outer graph stays on local threads (items may be non-trivially-copyable,
// e.g. whole grids) while the width goes into the hosted jobs.
//
// Deadlock note: hosted submissions come from pipeline stage and farm
// replica threads, never from engine rank threads, and hosted jobs never
// depend on one another — so scheduler queueing cannot wedge a composed run.
// run failure semantics: the first exception from any stage or hosted job
// (JobCancelled, JobDeadlineExceeded, a body throw, ...) cancels the graph
// run and is rethrown from run_* — it fails only this graph run, never the
// scheduler or engine, which keep serving other submitters.
//
// Thread-safety: runs of one Graph must not overlap (the pipeline source-
// consumption contract, plus the host binding is rebound per run). Distinct
// Graphs may run concurrently against the same Scheduler.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/graph_error.hpp"
#include "core/pipeline.hpp"
#include "mpl/job.hpp"
#include "mpl/process.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"

namespace ppa::compose {

// The tuning/ordering vocabulary is the pipeline's.
using pipeline::Config;
using pipeline::ordered;
using pipeline::ordered_t;
using pipeline::RunStats;
using pipeline::unordered;
using pipeline::unordered_t;

/// Per-node shape metadata, source-to-sink. This is what the width checks
/// and GraphShapeError messages are computed from.
struct NodeMeta {
  enum class Kind { kSource, kStage, kFarm, kSink };
  Kind kind = Kind::kStage;
  int replicas = 1;    ///< farm width (serial nodes: 1)
  bool ordered = false;
  int hosted_np = 0;   ///< ranks per hosted job (0 = not a hosted node)
};

/// The GraphShapeError label for node `index` of `n_nodes` ("source",
/// "sink", "stage#2", "farm#1 (ordered)", "hosted#2 (np=4)",
/// "hosted-farm#3 (unordered, np=2)"). Defined in compose.cpp.
[[nodiscard]] std::string node_label(const NodeMeta& meta, std::size_t index,
                                     std::size_t n_nodes);

/// Reject hosted nodes wider than `available` ranks (GraphShapeError naming
/// the first offender). `what` goes into the message ("run_scheduler", ...).
void validate_hosted_widths(const std::vector<NodeMeta>& meta, int available,
                            const std::string& what);

/// Reject an ordered farm anywhere downstream of an unordered one
/// (GraphShapeError naming the ordered farm). Composed graphs enforce this
/// at build time on every driver — one shape contract, not a per-driver
/// surprise (the SPMD pipeline driver rejects the same shape at run time).
void validate_farm_order(const std::vector<NodeMeta>& meta);

namespace detail {

/// How hosted stages execute, shared by every hosted node of one Graph run.
/// Rebound by Graph::run_* before the pipeline starts: inline (warm
/// spmd_run) for run_sequential/run_threaded, scheduler submission (with
/// priority and graph-anchored JobOptions) for run_scheduler. Hosted
/// callables hold it by shared_ptr so the binding survives node moves.
struct HostBinding {
  mpl::Scheduler* scheduler = nullptr;  ///< null = inline spmd_run
  mpl::Priority priority = mpl::Priority::kNormal;
  mpl::JobOptions options{};

  /// Run `body` as one np-wide job under the current binding. Defined in
  /// compose.cpp.
  void run(int np, const std::function<void(mpl::Process&)>& body) const;
};

using HostBindingPtr = std::shared_ptr<HostBinding>;

/// A hosted SPMD body lifted to a pipeline stage callable: In -> Out where
/// `Out body(mpl::Process&, const In&)` runs on np ranks and rank 0's
/// return value is the stage output. The generic operator() lets the
/// pipeline's type threading infer Out per input type exactly as it does
/// for plain stages.
template <typename Body>
class HostedFn {
 public:
  HostedFn(int np, Body body, HostBindingPtr binding)
      : np_(np), body_(std::move(body)), binding_(std::move(binding)) {}

  template <typename In>
  auto operator()(In&& item) {
    using Input = std::decay_t<In>;
    using Out = std::decay_t<
        std::invoke_result_t<Body&, mpl::Process&, const Input&>>;
    const Input input = std::forward<In>(item);
    // The slot, not a default-constructed Out: the body's result may be
    // expensive or non-default-constructible; only rank 0 fills it.
    std::optional<Out> result;
    binding_->run(np_, [&](mpl::Process& p) {
      Out out = body_(p, input);
      if (p.rank() == 0) result = std::move(out);
    });
    return std::move(*result);
  }

 private:
  int np_;
  Body body_;
  HostBindingPtr binding_;
};

/// One combinator's contribution: the pipeline node it wraps, its shape
/// metadata, and (for hosted nodes) the binding its callables share.
template <typename Node>
struct Piece {
  Node node;
  NodeMeta meta;
  std::vector<HostBindingPtr> bindings;
};

/// An open graph: source + mids, waiting for the sink.
template <typename SrcF, typename... Mids>
struct OpenGraph {
  pipeline::SourceNode<SrcF> src;
  std::tuple<Mids...> mids;
  std::vector<NodeMeta> meta;
  std::vector<HostBindingPtr> bindings;
};

template <typename Node>
inline constexpr bool is_sink_node = false;
template <typename F>
inline constexpr bool is_sink_node<pipeline::SinkNode<F>> = true;

template <typename Node>
struct sink_fn;
template <typename F>
struct sink_fn<pipeline::SinkNode<F>> {
  using type = F;
};

inline void append_meta(std::vector<NodeMeta>& meta,
                        std::vector<HostBindingPtr>& bindings,
                        NodeMeta node_meta,
                        std::vector<HostBindingPtr> node_bindings) {
  meta.push_back(node_meta);
  for (auto& b : node_bindings) bindings.push_back(std::move(b));
}

}  // namespace detail

// ----------------------------------------------------------- combinators --

/// Stream source: () -> std::optional<Item>; nullopt ends the stream.
template <typename F>
[[nodiscard]] auto source(F&& fn) {
  using Node = pipeline::SourceNode<std::decay_t<F>>;
  return detail::Piece<Node>{pipeline::source(std::forward<F>(fn)),
                             NodeMeta{NodeMeta::Kind::kSource, 1, false, 0},
                             {}};
}

/// Serial stage: Item -> Out, or Item -> std::optional<Out> (filter).
template <typename F>
[[nodiscard]] auto stage(F&& fn) {
  using Node = pipeline::StageNode<std::decay_t<F>>;
  return detail::Piece<Node>{pipeline::stage(std::forward<F>(fn)),
                             NodeMeta{NodeMeta::Kind::kStage, 1, false, 0},
                             {}};
}

/// Replicated stage (pipeline farm): `make_worker()` is called once per
/// replica; pass compose::ordered / compose::unordered for the output
/// ordering policy.
template <typename MW>
[[nodiscard]] auto farm(int width, MW&& make_worker, ordered_t tag) {
  using Node = pipeline::FarmNode<std::decay_t<MW>>;
  auto node = pipeline::farm(width, std::forward<MW>(make_worker), tag);
  const int w = node.width;
  return detail::Piece<Node>{std::move(node),
                             NodeMeta{NodeMeta::Kind::kFarm, w, true, 0},
                             {}};
}
template <typename MW>
[[nodiscard]] auto farm(int width, MW&& make_worker, unordered_t tag) {
  using Node = pipeline::FarmNode<std::decay_t<MW>>;
  auto node = pipeline::farm(width, std::forward<MW>(make_worker), tag);
  const int w = node.width;
  return detail::Piece<Node>{std::move(node),
                             NodeMeta{NodeMeta::Kind::kFarm, w, false, 0},
                             {}};
}

/// Hosted stage: each stream item runs `Out body(mpl::Process&, const In&)`
/// as one np-wide SPMD job; rank 0's return value continues downstream.
/// Throws GraphShapeError immediately if np < 1.
template <typename Body>
[[nodiscard]] auto engine_job(int np, Body&& body) {
  if (np < 1) {
    throw GraphShapeError("hosted stage", 1, np,
                          "engine_job: a hosted job needs at least one rank");
  }
  auto binding = std::make_shared<detail::HostBinding>();
  using Fn = detail::HostedFn<std::decay_t<Body>>;
  using Node = pipeline::StageNode<Fn>;
  return detail::Piece<Node>{
      pipeline::stage(Fn(np, std::forward<Body>(body), binding)),
      NodeMeta{NodeMeta::Kind::kStage, 1, false, np},
      {std::move(binding)}};
}

/// Hosted farm: `width` replicas of a hosted stage — up to `width`
/// concurrent np-rank jobs of the same body. The body is copied per
/// replica; all replicas share one host binding. Throws GraphShapeError
/// immediately if np < 1.
template <typename Body, typename Tag>
[[nodiscard]] auto engine_farm(int width, int np, Body&& body, Tag tag) {
  static_assert(std::is_same_v<Tag, ordered_t> || std::is_same_v<Tag, unordered_t>,
                "engine_farm needs compose::ordered or compose::unordered");
  if (np < 1) {
    throw GraphShapeError("hosted farm", 1, np,
                          "engine_farm: a hosted job needs at least one rank");
  }
  auto binding = std::make_shared<detail::HostBinding>();
  using Fn = detail::HostedFn<std::decay_t<Body>>;
  auto make_worker = [np, body = std::decay_t<Body>(std::forward<Body>(body)),
                      binding]() { return Fn(np, body, binding); };
  using Node = pipeline::FarmNode<std::decay_t<decltype(make_worker)>>;
  auto node = pipeline::farm(width, std::move(make_worker), tag);
  const int w = node.width;
  return detail::Piece<Node>{
      std::move(node),
      NodeMeta{NodeMeta::Kind::kFarm, w, std::is_same_v<Tag, ordered_t>, np},
      {std::move(binding)}};
}

/// Stream sink: Item -> void.
template <typename F>
[[nodiscard]] auto sink(F&& fn) {
  using Node = pipeline::SinkNode<std::decay_t<F>>;
  return detail::Piece<Node>{pipeline::sink(std::forward<F>(fn)),
                             NodeMeta{NodeMeta::Kind::kSink, 1, false, 0},
                             {}};
}

// ----------------------------------------------------------------- graph --

/// A closed composed graph: the pipeline plan plus shape metadata and the
/// hosted-stage bindings. Built by operator| when the sink is attached
/// (which is also where build-time shape validation runs).
template <typename SrcF, typename SinkF, typename... Mids>
class Graph {
 public:
  using Plan = pipeline::Plan<SrcF, SinkF, Mids...>;

  Graph(Plan plan, std::vector<NodeMeta> meta,
        std::vector<detail::HostBindingPtr> bindings)
      : plan_(std::move(plan)),
        meta_(std::move(meta)),
        bindings_(std::move(bindings)) {
    validate_farm_order(meta_);
  }

  /// Shape metadata, source-to-sink (one entry per node).
  [[nodiscard]] const std::vector<NodeMeta>& node_meta() const noexcept {
    return meta_;
  }
  /// The GraphShapeError label for node `j` (source = 0).
  [[nodiscard]] std::string node_label(std::size_t j) const {
    return compose::node_label(meta_[j], j, meta_.size());
  }
  /// Widest hosted job in the graph (0 when nothing is hosted) — the
  /// minimum engine width run_scheduler needs.
  [[nodiscard]] int hosted_width() const noexcept {
    int w = 0;
    for (const auto& m : meta_) w = std::max(w, m.hosted_np);
    return w;
  }
  /// Check every hosted node fits `available` ranks; GraphShapeError names
  /// the first offender. run_scheduler calls this with the engine width.
  void validate_width(int available, const std::string& what) const {
    validate_hosted_widths(meta_, available, what);
  }

  /// Debug driver: plain pull loop; hosted jobs run np-wide via spmd_run's
  /// warm path (space-shared when the process engine has room).
  void run_sequential() {
    bind_inline();
    plan_.run_sequential();
  }

  /// Overlapped driver: one thread per serial node and per farm replica;
  /// hosted jobs via spmd_run, same as run_sequential.
  RunStats run_threaded(Config cfg = {}) {
    bind_inline();
    return plan_.run_threaded(cfg);
  }

  /// Serving driver: the outer graph runs threaded locally while hosted
  /// jobs are submitted to `scheduler` (space-shared, priority-classed,
  /// bounded admission queue). `options.deadline` is the budget for the
  /// whole graph run: it is anchored once, here, so every hosted job is
  /// charged against the remaining graph budget (queueing included) —
  /// JobOptions::anchor semantics in mpl/job.hpp. Throws GraphShapeError
  /// before anything runs if a hosted np exceeds the scheduler's width.
  RunStats run_scheduler(mpl::Scheduler& scheduler,
                         Config cfg = {},
                         mpl::Priority priority = mpl::Priority::kNormal,
                         mpl::JobOptions options = {}) {
    validate_width(scheduler.width(), "run_scheduler");
    if (options.deadline.count() > 0 &&
        options.anchor == std::chrono::steady_clock::time_point{}) {
      options.anchor = std::chrono::steady_clock::now();
    }
    for (const auto& b : bindings_) {
      b->scheduler = &scheduler;
      b->priority = priority;
      b->options = options;
    }
    return plan_.run_threaded(cfg);
  }

 private:
  void bind_inline() {
    for (const auto& b : bindings_) {
      b->scheduler = nullptr;
      b->priority = mpl::Priority::kNormal;
      b->options = {};
    }
  }

  Plan plan_;
  std::vector<NodeMeta> meta_;
  std::vector<detail::HostBindingPtr> bindings_;
};

// ------------------------------------------------------------- operator| --
//
// The operators live in detail so argument-dependent lookup finds them via
// Piece/OpenGraph (which are detail members) from any namespace — callers
// never need a using-declaration.

namespace detail {

template <typename SrcF, typename Node>
[[nodiscard]] auto operator|(detail::Piece<pipeline::SourceNode<SrcF>> src,
                             detail::Piece<Node> next) {
  if constexpr (detail::is_sink_node<Node>) {
    // Degenerate source|sink graph.
    using F = typename detail::sink_fn<Node>::type;
    std::vector<NodeMeta> meta{src.meta, next.meta};
    return Graph<SrcF, F>(
        pipeline::Plan<SrcF, F>(std::move(src.node), std::tuple<>{},
                                std::move(next.node)),
        std::move(meta), std::move(src.bindings));
  } else {
    detail::OpenGraph<SrcF, Node> open{std::move(src.node),
                                       std::tuple<Node>{std::move(next.node)},
                                       {},
                                       std::move(src.bindings)};
    open.meta.push_back(src.meta);
    detail::append_meta(open.meta, open.bindings, next.meta,
                        std::move(next.bindings));
    return open;
  }
}

template <typename SrcF, typename... Mids, typename Node>
[[nodiscard]] auto operator|(detail::OpenGraph<SrcF, Mids...> open,
                             detail::Piece<Node> next) {
  detail::append_meta(open.meta, open.bindings, next.meta,
                      std::move(next.bindings));
  return detail::OpenGraph<SrcF, Mids..., Node>{
      std::move(open.src),
      std::tuple_cat(std::move(open.mids),
                     std::tuple<Node>{std::move(next.node)}),
      std::move(open.meta), std::move(open.bindings)};
}

template <typename SrcF, typename... Mids, typename F>
[[nodiscard]] auto operator|(detail::OpenGraph<SrcF, Mids...> open,
                             detail::Piece<pipeline::SinkNode<F>> snk) {
  detail::append_meta(open.meta, open.bindings, snk.meta,
                      std::move(snk.bindings));
  return Graph<SrcF, F, Mids...>(
      pipeline::Plan<SrcF, F, Mids...>(std::move(open.src),
                                       std::move(open.mids),
                                       std::move(snk.node)),
      std::move(open.meta), std::move(open.bindings));
}

}  // namespace detail

}  // namespace ppa::compose
