// ppa/meshspectral/plan.hpp
//
// The exchange plans' shared vocabulary — PlanShapeMismatch, the tag-block
// constants, periodicity selectors, Region2/Region3 rectangles and the
// neighbor/slab arithmetic — and ExchangePlan3D, the persistent split-phase
// halo exchange of one 3-D grid section per rank (the 2-D exchanges, for
// block sets and for one Grid2D per rank, live in blockplan.hpp). A plan is
// the mesh archetype's ghost-cell refresh compiled once, at grid
// construction time, into a reusable object (cf. fsgrid's
// updateGhostCells and parthenon's boundary-exchange machinery; Danelutto
// et al. motivate making the access pattern an explicit reusable object).
//
// ExchangePlan3D records, for one rank of a Cartesian process grid and one
// section geometry (nx, ny, nz, ghost width), the complete neighbor set —
// faces, edges and corners — with the pack rectangle sent to and the
// unpack rectangle received from each neighbor, and the message tags both
// sides agree on. Exchanging is then:
//
//     plan.begin_exchange(p, grid);   // pack + send to every neighbor
//     ... update interior (core) cells that read no ghosts ...
//     plan.end_exchange(p, grid);     // receive + scatter into ghosts
//     ... update boundary (rim) cells that do read ghosts ...
//
// so halo traffic is in flight while the solver updates its interior, and
// a width-k halo, diagonal neighbors included, crosses in one begin/end
// pair with no per-axis relay.
//
// Transport and buffers: one mailbox message per neighbor direction.
// Outgoing rectangles are packed into exact-capacity vectors whose storage
// is adopted as the (immutable, refcounted) message payload — one copy
// out. Incoming payloads are borrowed and scattered straight into the
// ghost cells — one copy in.
//
// Thread-safety and ownership: a plan is owned by one rank (thread) and must
// only be used with that rank's Process; it holds no reference to any grid —
// begin/end take the grid as an argument, so one plan serves any same-shape
// grid (e.g. both halves of a ping-pong pair across std::swap). begin packs a
// snapshot: interior writes between begin and end do not affect the data in
// flight. begin never blocks; end blocks until every expected halo message
// has arrived. At most one exchange per plan may be in flight (re-entry
// across iterations is the intended use; nesting is not).
//
// Tags: each plan owns a block of kExchangeTagStride tags starting at
// kExchangeTagBase + options.tag_block * kExchangeTagStride. Plans whose
// begin/end pairs may be simultaneously in flight on the same grids must use
// distinct tag blocks (FIFO per (source, tag) makes same-block plans safe
// only when all ranks begin and end them in the same relative order).
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "meshspectral/grid3d.hpp"
#include "mpl/process.hpp"
#include "mpl/topology.hpp"

namespace ppa::mesh {

/// Thrown when a plan's begin/end is handed a grid (or block set) whose shape
/// differs from the one the plan was compiled for. Plans deliberately hold
/// no grid reference — one plan serves any same-shape grid (ping-pong pairs
/// across std::swap) — so the shape is validated on every begin/end.
class PlanShapeMismatch : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// User-level tag block reserved for halo-exchange plans and redistribution
/// plans; apps should avoid [kExchangeTagBase, kExchangeTagBase + 8192).
inline constexpr int kExchangeTagBase = 1 << 20;
/// Tags per plan block (>= 27, the 3-D neighbor-direction count).
inline constexpr int kExchangeTagStride = 32;
/// Exchange-plan tag_block values must lie in [0, kExchangeTagBlocks) so
/// they cannot reach the redistribution tag space (checked at compile()).
inline constexpr int kExchangeTagBlocks = 128;
/// Tag base for row/column redistribution plans (see rowcol.hpp); starts
/// right after the last exchange-plan block.
inline constexpr int kRedistributeTagBase =
    kExchangeTagBase + kExchangeTagBlocks * kExchangeTagStride;

/// Per-axis periodicity selector for 2-D exchanges.
struct Periodicity {
  bool x = false;
  bool y = false;
};

/// Per-axis periodicity selector for 3-D exchanges.
struct Periodicity3 {
  bool x = false;
  bool y = false;
  bool z = false;
};

/// Half-open rectangle of local indices [i0, i1) x [j0, j1) — used both for
/// the plans' pack/unpack rectangles (ghost-relative coordinates allowed)
/// and for the core/rim iteration helpers in ops.hpp.
struct Region2 {
  std::ptrdiff_t i0 = 0, i1 = 0, j0 = 0, j1 = 0;
  [[nodiscard]] bool empty() const noexcept { return i0 >= i1 || j0 >= j1; }
};

/// 3-D equivalent of Region2.
struct Region3 {
  std::ptrdiff_t i0 = 0, i1 = 0, j0 = 0, j1 = 0, k0 = 0, k1 = 0;
  [[nodiscard]] bool empty() const noexcept {
    return i0 >= i1 || j0 >= j1 || k0 >= k1;
  }
};

namespace detail {

/// Wrap coordinate c into [0, n).
inline int wrap_coord(int c, int n) { return ((c % n) + n) % n; }

/// Neighbor coordinate along one axis: wrapped when periodic, kNoNeighbor
/// (-1 stand-in) when falling off a non-periodic boundary.
inline bool axis_neighbor(int c, int d, int n, bool periodic, int& out) {
  const int v = c + d;
  if (v >= 0 && v < n) {
    out = v;
    return true;
  }
  if (!periodic) return false;
  out = wrap_coord(v, n);
  return true;
}

/// [lo, hi) slab of the *interior* adjacent to direction d along an axis of
/// extent n with ghost width g (the region sent toward d).
inline void send_slab(int d, std::ptrdiff_t n, std::ptrdiff_t g, std::ptrdiff_t& lo,
                      std::ptrdiff_t& hi) {
  if (d < 0) {
    lo = 0;
    hi = g;
  } else if (d > 0) {
    lo = n - g;
    hi = n;
  } else {
    lo = 0;
    hi = n;
  }
}

/// [lo, hi) slab of the *ghost* layer at direction d (the region filled
/// from the neighbor at offset d).
inline void recv_slab(int d, std::ptrdiff_t n, std::ptrdiff_t g, std::ptrdiff_t& lo,
                      std::ptrdiff_t& hi) {
  if (d < 0) {
    lo = -g;
    hi = 0;
  } else if (d > 0) {
    lo = n;
    hi = n + g;
  } else {
    lo = 0;
    hi = n;
  }
}

}  // namespace detail

/// Options for a 3-D exchange plan.
struct ExchangeOptions3 {
  Periodicity3 periodic{};
  /// Exchange edge/corner blocks (offsets with 2+ nonzero components).
  /// Required for stencils that read diagonal ghosts.
  bool corners = true;
  int tag_block = 0;
};

// ------------------------------------------------------------------- 3-D --

/// Compiled halo-exchange schedule for one rank's 3-D grid section: the
/// 26-neighbor set (faces, edges, corners) in a single round per begin/end
/// pair.
class ExchangePlan3D {
 public:
  using Options = ExchangeOptions3;

  ExchangePlan3D() = default;

  ExchangePlan3D(const mpl::CartGrid3D& pgrid, int rank, std::size_t nx,
                 std::size_t ny, std::size_t nz, std::size_t ghost,
                 Options options = Options()) {
    compile(pgrid, rank, nx, ny, nz, ghost, options);
  }

  template <typename T>
  ExchangePlan3D(const mpl::CartGrid3D& pgrid, int rank, const Grid3D<T>& grid,
                 Options options = Options())
      : ExchangePlan3D(pgrid, rank, grid.nx(), grid.ny(), grid.nz(),
                       grid.ghost(), options) {}

  template <typename T>
  void begin_exchange(mpl::Process& p, Grid3D<T>& grid) {
    check_geometry(grid.nx(), grid.ny(), grid.nz(), grid.ghost());
    assert(!in_flight_ && "ExchangePlan3D: begin without matching end");
    in_flight_ = true;
    for (const auto& t : transfers_) {
      p.send(t.peer, t.send_tag,
             grid.pack_region(t.send.i0, t.send.i1, t.send.j0, t.send.j1,
                              t.send.k0, t.send.k1));
    }
    for (const auto& c : copies_) {
      grid.unpack_region(c.to.i0, c.to.i1, c.to.j0, c.to.j1, c.to.k0, c.to.k1,
                         grid.pack_region(c.from.i0, c.from.i1, c.from.j0,
                                          c.from.j1, c.from.k0, c.from.k1));
    }
  }

  template <typename T>
  void end_exchange(mpl::Process& p, Grid3D<T>& grid) {
    check_geometry(grid.nx(), grid.ny(), grid.nz(), grid.ghost());
    assert(in_flight_ && "ExchangePlan3D: end without begin");
    in_flight_ = false;
    for (const auto& t : transfers_) {
      const auto slab = p.recv_borrow<T>(t.peer, t.recv_tag);
      grid.unpack_region(t.recv.i0, t.recv.i1, t.recv.j0, t.recv.j1, t.recv.k0,
                         t.recv.k1, slab.view());
    }
  }

  template <typename T>
  void exchange(mpl::Process& p, Grid3D<T>& grid) {
    begin_exchange(p, grid);
    end_exchange(p, grid);
  }

  [[nodiscard]] std::size_t transfer_count() const noexcept {
    return transfers_.size();
  }
  [[nodiscard]] std::size_t local_copy_count() const noexcept {
    return copies_.size();
  }
  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] std::size_t ghost() const noexcept { return ghost_; }

 private:
  struct Transfer {
    int peer = 0;
    int send_tag = 0;
    int recv_tag = 0;
    Region3 send;
    Region3 recv;
  };
  struct LocalCopy {
    Region3 from;
    Region3 to;
  };

  void compile(const mpl::CartGrid3D& pgrid, int rank, std::size_t nx,
               std::size_t ny, std::size_t nz, std::size_t ghost,
               const Options& options) {
    assert(options.tag_block >= 0 && options.tag_block < kExchangeTagBlocks &&
           "ExchangePlan3D: tag_block outside the reserved exchange tag space");
    n_[0] = nx;
    n_[1] = ny;
    n_[2] = nz;
    ghost_ = ghost;
    const auto g = static_cast<std::ptrdiff_t>(ghost);
    if (g == 0) return;
    const std::ptrdiff_t ni = static_cast<std::ptrdiff_t>(nx);
    const std::ptrdiff_t nj = static_cast<std::ptrdiff_t>(ny);
    const std::ptrdiff_t nk = static_cast<std::ptrdiff_t>(nz);
    assert(g <= ni && g <= nj && g <= nk &&
           "ExchangePlan3D: ghost width exceeds the local section");
    const auto c = pgrid.coords_of(rank);
    const bool per[3] = {options.periodic.x, options.periodic.y,
                         options.periodic.z};
    const int np[3] = {pgrid.npx(), pgrid.npy(), pgrid.npz()};
    const int base = kExchangeTagBase + options.tag_block * kExchangeTagStride;
    const auto dir_tag = [base](int dx, int dy, int dz) {
      return base + ((dx + 1) * 3 + (dy + 1)) * 3 + (dz + 1);
    };

    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const int nonzero = (dx != 0) + (dy != 0) + (dz != 0);
          if (!options.corners && nonzero > 1) continue;
          int q[3];
          if (!detail::axis_neighbor(c[0], dx, np[0], per[0], q[0]) ||
              !detail::axis_neighbor(c[1], dy, np[1], per[1], q[1]) ||
              !detail::axis_neighbor(c[2], dz, np[2], per[2], q[2])) {
            continue;
          }
          const int peer = pgrid.rank_of(q[0], q[1], q[2]);
          Region3 send, recv;
          detail::send_slab(dx, ni, g, send.i0, send.i1);
          detail::send_slab(dy, nj, g, send.j0, send.j1);
          detail::send_slab(dz, nk, g, send.k0, send.k1);
          detail::recv_slab(dx, ni, g, recv.i0, recv.i1);
          detail::recv_slab(dy, nj, g, recv.j0, recv.j1);
          detail::recv_slab(dz, nk, g, recv.k0, recv.k1);
          if (peer == rank) {
            Region3 from;
            detail::send_slab(-dx, ni, g, from.i0, from.i1);
            detail::send_slab(-dy, nj, g, from.j0, from.j1);
            detail::send_slab(-dz, nk, g, from.k0, from.k1);
            copies_.push_back({from, recv});
          } else {
            transfers_.push_back({peer, dir_tag(dx, dy, dz),
                                  dir_tag(-dx, -dy, -dz), send, recv});
          }
        }
      }
    }
  }

  void check_geometry(std::size_t nx, std::size_t ny, std::size_t nz,
                      std::size_t ghost) const {
    if (nx != n_[0] || ny != n_[1] || nz != n_[2] || ghost != ghost_) {
      throw PlanShapeMismatch(
          "ExchangePlan3D: grid shape (" + std::to_string(nx) + "x" +
          std::to_string(ny) + "x" + std::to_string(nz) + ", ghost " +
          std::to_string(ghost) + ") differs from the compiled plan (" +
          std::to_string(n_[0]) + "x" + std::to_string(n_[1]) + "x" +
          std::to_string(n_[2]) + ", ghost " + std::to_string(ghost_) + ")");
    }
  }

  std::size_t n_[3] = {0, 0, 0};
  std::size_t ghost_ = 0;
  std::vector<Transfer> transfers_;
  std::vector<LocalCopy> copies_;
  bool in_flight_ = false;
};

}  // namespace ppa::mesh
