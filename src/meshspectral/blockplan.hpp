// ppa/meshspectral/blockplan.hpp
//
// The 2-D halo exchange: batched boundary rounds for multi-block domains
// (blockset.hpp), in the shape of Parthenon's `bvals_in_one`, and
// ExchangePlan2D, the same plan at one block per rank for a rank that holds
// its section as a bare Grid2D. Compile, once per block set, a
// boundary-buffer table covering every (block, neighbor-block) face/corner
// pair, split into
//
//   - on-rank pairs:  both blocks owned here — a direct local copy, no
//     message at all (oversubscription converts former halo traffic into
//     memcpy);
//   - off-rank pairs: coalesced per *peer rank* — every halo strip this
//     rank owes a given peer travels in ONE batched message per round,
//     regardless of how many block pairs straddle that rank boundary.
//
// Exchanging is then:
//
//     bplan.begin_exchange_all(p, blocks);   // one send per peer rank
//     ... per-block core sweeps ...
//     bplan.end_exchange_all(p, blocks);     // one receive per peer rank
//     ... per-block rim sweeps ...
//
// Determinism: both sides of a rank boundary derive the *same* entry list
// in the *same* order from nothing but the (replicated) layout + owner
// map — entries to/from a peer are sorted by (src block id, dst block id,
// direction), so the sender's concatenation order is exactly the
// receiver's parse order and no per-entry header beyond the allocation
// status is needed.
//
// Wire format (per peer, per round): a byte message that concatenates one
// record per entry in canonical order,
//
//     [u64 status][ sizeof(T) * count bytes of halo data  iff status == 1 ]
//
// status 0 = source block deallocated (no data follows; the receiver
// zero-fills the ghost strip), status 1 = halo strip follows. This is the
// piggyback channel of the sparse allocation protocol: when `sparse` is on,
// the receiver makes an allocation pass over all incoming records first —
// a deallocated destination block materializes (zero-filled) iff some
// incoming strip carries a value with |v| > alloc_threshold — and only
// then unpacks, so a block woken by one neighbor still receives every
// other neighbor's strip from the same round. Unallocated destinations
// discard trivial strips without ever allocating. Local copies are staged
// at begin in the same record format (snapshot semantics) and applied in
// the same two-pass order at end.
//
// Transport and buffers: each peer's message travels on the fixed-peer
// channel (mpl/channel.hpp) from this rank to that peer under the plan's
// key, kPlanChannelBase + tag_block. One copy out, one copy in: begin
// packs each strip's row segments straight from the grid into the
// channel's buffer; end unpacks them from that buffer, borrowed in place,
// straight into the ghost rows, then releases it. The buffers belong to
// the channel (two per channel, alternating rounds), so a plan owns no
// message memory, a round allocates nothing once the buffers have grown to
// the round's size, and destroying a plan mid-round waits for no peer.
// At one block per rank the round sends one message per neighbor rank; a
// peer reached through several directions (a periodic axis two blocks
// wide) gets one coalesced message.
//
// One grid per rank: ExchangePlan2D builds block_layout(pgrid, ...) and
// block_owners(pgrid) — block (bx, by) on pgrid.rank_of(bx, by) — and runs
// its rounds through the Grid2D overloads of begin/end_exchange_all, which
// take the rank's one block as a bare grid. Both forms share one record
// writer, channel round and unpacker; they differ only in how a round
// reaches a block's grid (owned_grid).
//
// Tags: a plan owns one tag block, and with it one channel per (peer,
// direction); every message carries the tag kExchangeTagBase + tag_block *
// kExchangeTagStride + 27, which the receiving channel checks. Plans
// simultaneously in flight, block plans and ExchangePlan2Ds alike, need
// distinct tag blocks — then their rounds
// may begin and end in any interleaving, and a collective between begin
// and end (euler2d's dt allreduce) rides its own channel. Plans on one tag
// block used one after another share its channels in SPMD order.
//
// Thread-safety and ownership: owned by one rank (thread); holds no
// reference to any block set or grid — begin/end take it as an argument
// and validate (PlanShapeMismatch) that a set's layout, distribution and
// rank, or a bare grid's extents, ghost width and global window, match
// what was compiled. At most one exchange per plan may be in flight.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "meshspectral/blockset.hpp"
#include "meshspectral/grid2d.hpp"
#include "meshspectral/plan.hpp"
#include "mpl/channel.hpp"
#include "mpl/process.hpp"

namespace ppa::mesh {

static_assert(kExchangeTagBlocks <= mpl::kPlanChannelBlocks,
              "every exchange tag block needs its own plan channel key");

/// Options for a block-set exchange plan. Periodicity lives in the
/// BlockLayout2D (it is a property of the domain, not of one plan).
struct BlockExchangeOptions {
  /// Also exchange diagonal (corner) strips; 5-point stencils leave it off.
  bool corners = false;
  /// Tag block index; plans simultaneously in flight need distinct blocks.
  int tag_block = 0;
  /// Enable the sparse allocation protocol: unallocated destinations
  /// materialize when an incoming strip is non-trivial, otherwise stay
  /// storage-free.
  bool sparse = false;
  /// A value v is non-trivial (triggers allocation) when |v| >
  /// alloc_threshold. Only meaningful with `sparse` and arithmetic T.
  double alloc_threshold = 0.0;
};

/// Compiled boundary-buffer table for one rank's block set. Geometry-only
/// (no element type): begin/end are templated on the field type.
class BlockExchangePlan2D {
 public:
  using Options = BlockExchangeOptions;

  BlockExchangePlan2D() = default;

  /// Compile the table for `rank` under the given layout and block→rank
  /// map. All ranks must compile with the same layout, map and options.
  /// Throws std::invalid_argument when the ghost width exceeds a block's
  /// extent along either axis.
  BlockExchangePlan2D(const BlockLayout2D& layout, std::vector<int> owner,
                      int rank, Options options = Options()) {
    compile(layout, std::move(owner), rank, options);
  }

  /// Convenience: take layout/map/rank from an existing block set.
  template <typename T>
  explicit BlockExchangePlan2D(const BlockSet<T>& blocks,
                               Options options = Options())
      : BlockExchangePlan2D(blocks.layout(), blocks.owner_map(), blocks.rank(),
                            options) {}

  /// Pack every off-rank halo strip into one batched message per peer
  /// rank and publish it; stage the on-rank copies. Waits only for credit:
  /// a peer still unpacking the round before the previous one. Sent and
  /// staged data are a snapshot — interior writes after begin do not alter
  /// them. `blocks` is a BlockSet<T>, or the Grid2D<T> of a rank that owns
  /// exactly one block (ExchangePlan2D's form); either must match what was
  /// compiled (PlanShapeMismatch, thrown before anything is sent).
  template <typename Blocks>
  void begin_exchange_all(mpl::Process& p, Blocks& blocks) {
    using T = typename Blocks::value_type;
    check(blocks);
    assert(!in_flight_ && "BlockExchangePlan2D: begin without matching end");
    in_flight_ = true;
    for (const auto& pl : send_peers_) {
      std::byte* out = p.channel_buffer(pl.peer, key_, max_bytes<T>(pl));
      std::size_t n = 0;
      for (const auto& e : pl.entries) {
        n += write_record(out + n, owned_grid(blocks, e.src_id), e);
      }
      p.channel_send(pl.peer, key_, tag_, n);
    }
    // On-rank pairs are staged in the wire format too, so end applies them
    // through the same record path as incoming messages.
    staged_local_.resize(std::max(staged_local_.size(), max_bytes<T>(local_)));
    staged_bytes_ = 0;
    for (const auto& e : local_.entries) {
      staged_bytes_ += write_record(staged_local_.data() + staged_bytes_,
                                    owned_grid(blocks, e.src_id), e);
    }
  }

  /// Block until every peer's batched message has arrived, then apply the
  /// round: allocation pass first (sparse mode), then unpack — incoming
  /// strips into ghost cells, zero-fill for strips from deallocated
  /// sources, on-rank staged copies alongside — and hand the buffers back.
  template <typename Blocks>
  void end_exchange_all(mpl::Process& p, Blocks& blocks) {
    using T = typename Blocks::value_type;
    check(blocks);
    assert(in_flight_ && "BlockExchangePlan2D: end without begin");
    in_flight_ = false;

    // Receive everything up front (every peer published at its begin),
    // then index every record in the borrowed buffers.
    records_.clear();
    for (const auto& pl : recv_peers_) {
      index_records<T>(p.channel_recv(pl.peer, key_, tag_), pl.entries);
    }
    index_records<T>({staged_local_.data(), staged_bytes_}, local_.entries);

    // Allocation pass: a deallocated destination materializes iff some
    // incoming strip from this round is non-trivial — *before* any strip
    // is unpacked, so the new block receives all of this round's halos.
    // Only a block set has blocks to materialize.
    if constexpr (std::is_same_v<Blocks, BlockSet<T>>) {
      if (options_.sparse) {
        for (const auto& r : records_) {
          if (r.data == nullptr) continue;
          auto& dst = blocks.block(
              static_cast<std::size_t>(blocks.local_index(r.edge->dst_id)));
          if (!dst.allocated() && nontrivial_any<T>(r.data, r.edge->count)) {
            dst.allocate();
          }
        }
      }
    }

    // Unpack pass. Destinations still deallocated just drop their strips
    // (their value is zero by definition); allocated destinations take the
    // strip, or a zero fill when the source was deallocated.
    for (const auto& r : records_) {
      if (auto* dst = owned_grid(blocks, r.edge->dst_id)) {
        apply_strip(*dst, r.edge->recv, r.data);
      }
    }
    records_.clear();
    for (const auto& pl : recv_peers_) p.channel_release(pl.peer, key_);
  }

  /// Blocking convenience: begin immediately followed by end (no overlap).
  template <typename Blocks>
  void exchange_all(mpl::Process& p, Blocks& blocks) {
    begin_exchange_all(p, blocks);
    end_exchange_all(p, blocks);
  }

  /// Off-rank messages this rank sends per round (== receives per round):
  /// one per peer rank.
  [[nodiscard]] std::size_t off_rank_message_count() const noexcept {
    return send_peers_.size();
  }
  /// Peer ranks sharing at least one block boundary with this rank.
  [[nodiscard]] std::size_t peer_count() const noexcept {
    return send_peers_.size();
  }
  /// Off-rank (block, neighbor-block) directed pairs sent per round.
  [[nodiscard]] std::size_t off_rank_entry_count() const noexcept {
    return send_entry_total_;
  }
  /// On-rank directed pairs handled by local copy (no message).
  [[nodiscard]] std::size_t local_copy_count() const noexcept {
    return local_.entries.size();
  }
  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const BlockLayout2D& layout() const noexcept { return layout_; }

 private:
  /// One directed boundary pair: src block's `send` strip fills dst
  /// block's `recv` ghost strip (both in the blocks' own local indices).
  struct BlockEdge {
    int src_id = 0;
    int dst_id = 0;
    int dir_index = 0;  ///< (dx+1)*3 + (dy+1), part of the canonical order
    Region2 send;
    Region2 recv;
    std::size_t count = 0;  ///< elements per strip
  };
  struct PeerList {
    int peer = 0;
    std::vector<BlockEdge> entries;  ///< canonical (src, dst, dir) order
    std::size_t total_count = 0;     ///< sum of entry counts
  };
  /// One record of a round: its edge and where its strip's bytes start
  /// (nullptr when the source block is deallocated).
  struct Record {
    const BlockEdge* edge = nullptr;
    const std::byte* data = nullptr;
  };

  void compile(const BlockLayout2D& layout, std::vector<int> owner, int rank,
               const Options& options) {
    // Bad options would index the channel keys or the owner map out of
    // bounds: refuse them in every build.
    if (options.tag_block < 0 || options.tag_block >= kExchangeTagBlocks) {
      throw std::invalid_argument(
          "BlockExchangePlan2D: tag_block outside [0, kExchangeTagBlocks)");
    }
    if (static_cast<int>(owner.size()) != layout.nblocks()) {
      throw std::invalid_argument(
          "BlockExchangePlan2D: owner map size != block count");
    }
    layout_ = layout;
    owner_ = std::move(owner);
    rank_ = rank;
    const auto owned = std::ranges::count(owner_, rank);
    sole_block_ = owned == 1 ? static_cast<int>(std::ranges::find(owner_, rank) -
                                                owner_.begin())
                             : -1;
    options_ = options;
    tag_ = static_cast<std::uint32_t>(kExchangeTagBase +
                                      options.tag_block * kExchangeTagStride + 27);
    key_ = mpl::kPlanChannelBase + options.tag_block;
    const auto g = static_cast<std::ptrdiff_t>(layout.ghost);
    if (g == 0) return;
    // A block narrower than the halo would pack its own ghost cells as
    // interior data: refuse the layout in every build.
    for (int bx = 0; bx < layout.nbx; ++bx) {
      if (layout.x_range(bx).size() < layout.ghost) {
        throw std::invalid_argument(
            "BlockExchangePlan2D: ghost width exceeds a block's x extent");
      }
    }
    for (int by = 0; by < layout.nby; ++by) {
      if (layout.y_range(by).size() < layout.ghost) {
        throw std::invalid_argument(
            "BlockExchangePlan2D: ghost width exceeds a block's y extent");
      }
    }

    struct Directed {
      int peer;
      BlockEdge edge;
    };
    std::vector<Directed> sends, recvs;
    for (int id = 0; id < layout.nblocks(); ++id) {
      const int src_owner = owner_[static_cast<std::size_t>(id)];
      const int bx = layout.bx_of(id);
      const int by = layout.by_of(id);
      const auto sx = static_cast<std::ptrdiff_t>(layout.x_range(bx).size());
      const auto sy = static_cast<std::ptrdiff_t>(layout.y_range(by).size());
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          if (dx == 0 && dy == 0) continue;
          if (!options.corners && dx != 0 && dy != 0) continue;
          int qx = 0, qy = 0;
          if (!detail::axis_neighbor(bx, dx, layout.nbx, layout.periodic.x,
                                     qx) ||
              !detail::axis_neighbor(by, dy, layout.nby, layout.periodic.y,
                                     qy)) {
            continue;
          }
          const int dst = layout.id_of(qx, qy);
          const int dst_owner = owner_[static_cast<std::size_t>(dst)];
          if (src_owner != rank && dst_owner != rank) continue;
          const auto dx_n =
              static_cast<std::ptrdiff_t>(layout.x_range(qx).size());
          const auto dy_n =
              static_cast<std::ptrdiff_t>(layout.y_range(qy).size());
          BlockEdge e;
          e.src_id = id;
          e.dst_id = dst;
          e.dir_index = (dx + 1) * 3 + (dy + 1);
          detail::send_slab(dx, sx, g, e.send.i0, e.send.i1);
          detail::send_slab(dy, sy, g, e.send.j0, e.send.j1);
          // dst sees src at direction -d: its ghost strip at -d is filled.
          detail::recv_slab(-dx, dx_n, g, e.recv.i0, e.recv.i1);
          detail::recv_slab(-dy, dy_n, g, e.recv.j0, e.recv.j1);
          e.count = static_cast<std::size_t>((e.send.i1 - e.send.i0) *
                                             (e.send.j1 - e.send.j0));
          assert(e.count == static_cast<std::size_t>(
                                (e.recv.i1 - e.recv.i0) *
                                (e.recv.j1 - e.recv.j0)) &&
                 "BlockExchangePlan2D: send/recv strip extents disagree");
          if (src_owner == rank && dst_owner == rank) {
            local_.entries.push_back(e);
            local_.total_count += e.count;
          } else if (src_owner == rank) {
            sends.push_back({dst_owner, e});
          } else {
            recvs.push_back({src_owner, e});
          }
        }
      }
    }

    const auto canon = [](const Directed& a, const Directed& b) {
      if (a.peer != b.peer) return a.peer < b.peer;
      if (a.edge.src_id != b.edge.src_id) return a.edge.src_id < b.edge.src_id;
      if (a.edge.dst_id != b.edge.dst_id) return a.edge.dst_id < b.edge.dst_id;
      return a.edge.dir_index < b.edge.dir_index;
    };
    std::sort(sends.begin(), sends.end(), canon);
    std::sort(recvs.begin(), recvs.end(), canon);
    std::sort(local_.entries.begin(), local_.entries.end(),
              [](const BlockEdge& a, const BlockEdge& b) {
                if (a.src_id != b.src_id) return a.src_id < b.src_id;
                if (a.dst_id != b.dst_id) return a.dst_id < b.dst_id;
                return a.dir_index < b.dir_index;
              });
    const auto group = [](const std::vector<Directed>& flat,
                          std::vector<PeerList>& out, std::size_t& total) {
      for (const auto& d : flat) {
        if (out.empty() || out.back().peer != d.peer) {
          out.push_back({d.peer, {}, 0});
        }
        out.back().entries.push_back(d.edge);
        out.back().total_count += d.edge.count;
        ++total;
      }
    };
    group(sends, send_peers_, send_entry_total_);
    group(recvs, recv_peers_, recv_entry_total_);
    records_.reserve(recv_entry_total_ + local_.entries.size());
  }

  /// The field of block `id` (owned by this rank), or nullptr while it is
  /// deallocated: the one place a round reaches a grid. A bare Grid2D is
  /// the rank's sole block (check), so it answers for every id.
  template <typename T>
  static Grid2D<T>* owned_grid(BlockSet<T>& blocks, int id) {
    auto& b = blocks.block(static_cast<std::size_t>(blocks.local_index(id)));
    return b.allocated() ? &b.grid() : nullptr;
  }
  template <typename T>
  static Grid2D<T>* owned_grid(Grid2D<T>& grid, int /*id*/) {
    return &grid;
  }

  /// Bytes of a round's records for `pl` when every source is allocated.
  template <typename T>
  [[nodiscard]] static std::size_t max_bytes(const PeerList& pl) noexcept {
    return pl.entries.size() * sizeof(std::uint64_t) +
           pl.total_count * sizeof(T);
  }

  /// Write one wire record for edge `e` at `out` from its source block's
  /// field `src` (nullptr: deallocated), copying the strip's row segments
  /// straight from the grid; returns its size.
  template <typename T>
  static std::size_t write_record(std::byte* out, const Grid2D<T>* src,
                                  const BlockEdge& e) {
    const std::uint64_t status = src != nullptr ? 1 : 0;
    std::memcpy(out, &status, sizeof status);
    if (status == 0) return sizeof status;
    const auto& g = *src;
    out += sizeof status;
    const auto w = static_cast<std::size_t>(e.send.j1 - e.send.j0) * sizeof(T);
    for (std::ptrdiff_t i = e.send.i0; i < e.send.i1; ++i, out += w) {
      std::memcpy(out, g.row(i) + e.send.j0, w);
    }
    return sizeof status + e.count * sizeof(T);
  }

  /// Append to records_ one record per entry of `entries`, parsed from
  /// `bytes` (a peer's batched message or the local staging).
  template <typename T>
  void index_records(std::span<const std::byte> bytes,
                     std::span<const BlockEdge> entries) {
    std::size_t off = 0;
    for (const auto& e : entries) {
      std::uint64_t status = 0;
      assert(off + sizeof status <= bytes.size());
      std::memcpy(&status, bytes.data() + off, sizeof status);
      off += sizeof status;
      records_.push_back({&e, status != 0 ? bytes.data() + off : nullptr});
      if (status != 0) off += e.count * sizeof(T);
    }
    assert(off == bytes.size() &&
           "BlockExchangePlan2D: batched message size mismatch");
  }

  /// Copy a strip's row segments into ghost region `r`; a null strip means
  /// the source was deallocated — the ghost strip becomes exact zero.
  template <typename T>
  static void apply_strip(Grid2D<T>& g, const Region2& r,
                          const std::byte* data) {
    const auto w = static_cast<std::size_t>(r.j1 - r.j0);
    for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
      if (data == nullptr) {
        std::fill_n(g.row(i) + r.j0, w, T{});
      } else {
        std::memcpy(g.row(i) + r.j0, data, w * sizeof(T));
        data += w * sizeof(T);
      }
    }
  }

  /// Does any strip value exceed the allocation threshold?
  template <typename T>
  [[nodiscard]] bool nontrivial_any(const std::byte* data,
                                    std::size_t count) const {
    if constexpr (std::is_arithmetic_v<T>) {
      for (std::size_t k = 0; k < count; ++k) {
        T x;
        std::memcpy(&x, data + k * sizeof(T), sizeof x);
        if (std::abs(static_cast<double>(x)) > options_.alloc_threshold) {
          return true;
        }
      }
      return false;
    } else {
      // Non-arithmetic payloads have no magnitude: any data is non-trivial.
      return count > 0;
    }
  }

  template <typename T>
  void check(const BlockSet<T>& blocks) const {
    if (!(blocks.layout() == layout_) || blocks.rank() != rank_ ||
        blocks.owner_map() != owner_) {
      throw PlanShapeMismatch(
          "BlockExchangePlan2D: block set layout/distribution/rank differs "
          "from the compiled plan");
    }
  }

  /// A bare grid must be the section of the one block this rank owns.
  template <typename T>
  void check(const Grid2D<T>& g) const {
    if (sole_block_ < 0) {
      throw PlanShapeMismatch(
          "BlockExchangePlan2D: a bare grid needs a rank that owns one block");
    }
    const Range x = layout_.x_range(layout_.bx_of(sole_block_));
    const Range y = layout_.y_range(layout_.by_of(sole_block_));
    if (g.global_nx() != layout_.global_nx ||
        g.global_ny() != layout_.global_ny || g.ghost() != layout_.ghost ||
        g.x_range() != x || g.y_range() != y) {
      throw PlanShapeMismatch(
          "ExchangePlan2D: grid shape (" +
          describe(g.global_nx(), g.global_ny(), g.x_range(), g.y_range(),
                   g.ghost()) +
          ") differs from the compiled plan (" +
          describe(layout_.global_nx, layout_.global_ny, x, y, layout_.ghost) +
          ")");
    }
  }

  /// "nx x ny, ghost g, window [x0,x1)x[y0,y1) of GX x GY".
  static std::string describe(std::size_t gnx, std::size_t gny, Range x,
                              Range y, std::size_t ghost) {
    const auto s = [](std::size_t v) { return std::to_string(v); };
    return s(x.size()) + "x" + s(y.size()) + ", ghost " + s(ghost) +
           ", window [" + s(x.lo) + "," + s(x.hi) + ")x[" + s(y.lo) + "," +
           s(y.hi) + ") of " + s(gnx) + "x" + s(gny);
  }

  BlockLayout2D layout_;
  std::vector<int> owner_;
  int rank_ = 0;
  int sole_block_ = -1;  ///< the one block this rank owns, or -1
  Options options_;
  std::uint32_t tag_ = 0;
  int key_ = mpl::kPlanChannelBase;  ///< channel key of the tag block
  PeerList local_;                    ///< both endpoints on this rank
  std::vector<PeerList> send_peers_;  ///< ascending peer rank
  std::vector<PeerList> recv_peers_;  ///< ascending peer rank
  std::size_t send_entry_total_ = 0;
  std::size_t recv_entry_total_ = 0;
  /// begin→end staging of the local edges' records (capacity kept).
  std::vector<std::byte> staged_local_;
  std::size_t staged_bytes_ = 0;
  /// end_exchange_all's per-round record table, kept to reuse its capacity.
  std::vector<Record> records_;
  bool in_flight_ = false;
};

/// Options for an ExchangePlan2D.
struct ExchangeOptions2 {
  Periodicity periodic{};
  /// Also exchange the diagonal (corner) strips; 9-point stencils need them.
  bool corners = true;
  /// Tag block index; plans simultaneously in flight need distinct blocks.
  int tag_block = 0;
};

/// Halo exchange for one Grid2D per rank of a Cartesian process grid: the
/// block plan at one block per rank, block (bx, by) being rank
/// pgrid.rank_of(bx, by)'s section. A round sends one batched message per
/// neighbor rank; self-wrap ghosts (a periodic axis one rank wide) are
/// staged local copies. begin waits only for channel credit and snapshots
/// what it sends; begin/end throw PlanShapeMismatch, before anything is
/// sent, unless the grid is this rank's section of the compiled domain.
class ExchangePlan2D {
 public:
  using Options = ExchangeOptions2;

  ExchangePlan2D() = default;

  /// Compile the plan for `rank`'s section `grid`; all ranks must compile
  /// with consistent options. Throws std::invalid_argument for a tag_block
  /// outside [0, kExchangeTagBlocks) or a ghost wider than some section.
  template <typename T>
  ExchangePlan2D(const mpl::CartGrid2D& pgrid, int rank, const Grid2D<T>& grid,
                 Options options = Options())
      : plan_(block_layout(pgrid, grid.global_nx(), grid.global_ny(),
                           options.periodic, grid.ghost()),
              block_owners(pgrid), rank,
              {.corners = options.corners, .tag_block = options.tag_block}) {}

  template <typename T>
  void begin_exchange(mpl::Process& p, Grid2D<T>& grid) {
    plan_.begin_exchange_all(p, grid);
  }
  template <typename T>
  void end_exchange(mpl::Process& p, Grid2D<T>& grid) {
    plan_.end_exchange_all(p, grid);
  }
  /// Blocking convenience: begin immediately followed by end (no overlap).
  template <typename T>
  void exchange(mpl::Process& p, Grid2D<T>& grid) {
    plan_.exchange_all(p, grid);
  }

  /// Messages sent (== received) per exchange: one per neighbor rank.
  [[nodiscard]] std::size_t transfer_count() const noexcept {
    return plan_.off_rank_message_count();
  }
  /// Self-wrap local copies per exchange.
  [[nodiscard]] std::size_t local_copy_count() const noexcept {
    return plan_.local_copy_count();
  }
  [[nodiscard]] bool in_flight() const noexcept { return plan_.in_flight(); }
  [[nodiscard]] std::size_t ghost() const noexcept {
    return plan_.layout().ghost;
  }

 private:
  BlockExchangePlan2D plan_;
};

}  // namespace ppa::mesh
