// ppa/meshspectral/grid2d.hpp
//
// Local section of a 2-D grid distributed block-wise over a Cartesian
// process grid, with a ghost boundary of configurable width ("surrounding
// each local section with a ghost boundary containing shadow copies of
// boundary values from neighboring processes' local sections" — paper
// section 4.3, Fig 8).
//
// Indexing convention: local interior indices run over [0, nx_local) x
// [0, ny_local); ghost cells are addressed with negative indices or indices
// >= nx_local/ny_local (up to the ghost width), which makes stencil code read
// exactly like its sequential counterpart:  u(i-1, j) + u(i+1, j) + ...
//
// Storage layout: rows are padded so each row starts on a cache-line
// boundary (base pointer 64-byte aligned, row stride rounded up with
// ppa::padded_stride). `row(i)` exposes the row base pointer for the kernel
// layer (field.hpp / kernels.hpp); `row_stride()` is the element distance
// between consecutive rows. Padding cells are value-initialized, never read,
// and never packed — pack_region/unpack_region copy row segments and are
// therefore identical on padded and unpadded layouts.
//
// Thread-safety and ownership: a Grid2D is owned by exactly one rank
// (thread) — the container performs no synchronization and no communication
// itself; ghost refresh goes through blockplan.hpp. pack_region
// returns a freshly owned buffer (safe to adopt as a message payload);
// unpack_region accepts a borrowed span. Accessors never block.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "mpl/topology.hpp"
#include "support/aligned.hpp"
#include "support/ndarray.hpp"
#include "support/partition.hpp"

namespace ppa::mesh {

template <typename T>
class Grid2D {
 public:
  using value_type = T;

  Grid2D() = default;

  /// Local section of a global (global_nx x global_ny) grid for `rank` in
  /// process grid `pgrid`, with `ghost` shadow layers on each side.
  Grid2D(std::size_t global_nx, std::size_t global_ny,
         const mpl::CartGrid2D& pgrid, int rank, std::size_t ghost = 1)
      : global_nx_(global_nx),
        global_ny_(global_ny),
        ghost_(ghost) {
    const auto [px, py] = pgrid.coords_of(rank);
    x_range_ = block_range(global_nx, static_cast<std::size_t>(pgrid.npx()),
                           static_cast<std::size_t>(px));
    y_range_ = block_range(global_ny, static_cast<std::size_t>(pgrid.npy()),
                           static_cast<std::size_t>(py));
    allocate();
  }

  /// Whole-grid constructor (single process; useful for version-1 code and
  /// for assembling gathered results).
  Grid2D(std::size_t global_nx, std::size_t global_ny, std::size_t ghost = 1)
      : Grid2D(global_nx, global_ny, mpl::CartGrid2D{1, 1}, 0, ghost) {}

  /// Explicit-range constructor: the local section covers the given global
  /// index ranges, independent of any process grid. This is the meshblock
  /// form (blockset.hpp): a rank owning several blocks builds one Grid2D
  /// per block, each with its own global window.
  Grid2D(std::size_t global_nx, std::size_t global_ny, Range x_range,
         Range y_range, std::size_t ghost)
      : global_nx_(global_nx),
        global_ny_(global_ny),
        ghost_(ghost),
        x_range_(x_range),
        y_range_(y_range) {
    assert(x_range.hi <= global_nx && y_range.hi <= global_ny);
    allocate();
  }

  [[nodiscard]] std::size_t global_nx() const noexcept { return global_nx_; }
  [[nodiscard]] std::size_t global_ny() const noexcept { return global_ny_; }
  [[nodiscard]] std::size_t nx() const noexcept { return x_range_.size(); }
  [[nodiscard]] std::size_t ny() const noexcept { return y_range_.size(); }
  [[nodiscard]] std::size_t ghost() const noexcept { return ghost_; }
  /// Global index ranges of the interior owned by this section.
  [[nodiscard]] Range x_range() const noexcept { return x_range_; }
  [[nodiscard]] Range y_range() const noexcept { return y_range_; }

  /// Element distance between consecutive rows (>= ny() + 2*ghost();
  /// rounded up so every row base is kGridAlignment-aligned).
  [[nodiscard]] std::size_t row_stride() const noexcept { return row_stride_; }

  /// Base pointer of local row i: row(i)[j] == (*this)(i, j) for
  /// j in [-ghost, ny()+ghost). Valid for i in [-ghost, nx()+ghost).
  [[nodiscard]] T* row(std::ptrdiff_t i) noexcept {
    return storage_.data() + index(i, 0);
  }
  [[nodiscard]] const T* row(std::ptrdiff_t i) const noexcept {
    return storage_.data() + index(i, 0);
  }

  /// Global coordinates of local interior point (i, j).
  [[nodiscard]] std::size_t global_x(std::ptrdiff_t i) const noexcept {
    return x_range_.lo + static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::size_t global_y(std::ptrdiff_t j) const noexcept {
    return y_range_.lo + static_cast<std::size_t>(j);
  }

  /// Does this section own global row/column (gi, gj)?
  [[nodiscard]] bool owns(std::size_t gi, std::size_t gj) const noexcept {
    return x_range_.contains(gi) && y_range_.contains(gj);
  }

  /// Access local point (i, j); ghost cells via i in [-ghost, nx()+ghost).
  T& operator()(std::ptrdiff_t i, std::ptrdiff_t j) noexcept {
    return storage_[index(i, j)];
  }
  const T& operator()(std::ptrdiff_t i, std::ptrdiff_t j) const noexcept {
    return storage_[index(i, j)];
  }

  void fill(const T& v) { storage_.assign(storage_.size(), v); }

  /// Fill the interior from a function of *global* coordinates.
  template <typename F>
  void init_from_global(F&& f) {
    for (std::size_t i = 0; i < nx(); ++i) {
      T* r = row(static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = 0; j < ny(); ++j) {
        r[j] = f(x_range_.lo + i, y_range_.lo + j);
      }
    }
  }

  /// Copy another grid's interior (shapes must match); ghosts untouched.
  void copy_interior_from(const Grid2D& other) {
    assert(nx() == other.nx() && ny() == other.ny());
    for (std::size_t i = 0; i < nx(); ++i) {
      const T* src = other.row(static_cast<std::ptrdiff_t>(i));
      std::copy(src, src + ny(), row(static_cast<std::ptrdiff_t>(i)));
    }
  }

  /// Pack a rectangular local region (ghost-relative coordinates allowed)
  /// into a contiguous buffer, row-major. Copies row segments, so the
  /// padded row stride never leaks into the wire format.
  [[nodiscard]] std::vector<T> pack_region(std::ptrdiff_t i0, std::ptrdiff_t i1,
                                           std::ptrdiff_t j0, std::ptrdiff_t j1) const {
    std::vector<T> buf;
    buf.reserve(static_cast<std::size_t>((i1 - i0) * (j1 - j0)));
    for (std::ptrdiff_t i = i0; i < i1; ++i) {
      const T* r = row(i);
      buf.insert(buf.end(), r + j0, r + j1);
    }
    return buf;
  }

  /// Unpack a buffer produced by pack_region into the given local region.
  /// The span overload lets callers scatter straight out of a borrowed
  /// message payload without materializing an intermediate vector.
  void unpack_region(std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t j0,
                     std::ptrdiff_t j1, std::span<const T> buf) {
    assert(buf.size() == static_cast<std::size_t>((i1 - i0) * (j1 - j0)));
    const auto w = static_cast<std::size_t>(j1 - j0);
    std::size_t k = 0;
    for (std::ptrdiff_t i = i0; i < i1; ++i, k += w) {
      std::copy(buf.data() + k, buf.data() + k + w, row(i) + j0);
    }
  }
  void unpack_region(std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t j0,
                     std::ptrdiff_t j1, const std::vector<T>& buf) {
    unpack_region(i0, i1, j0, j1, std::span<const T>(buf));
  }

  /// Interior as a dense array (for tests and IO).
  [[nodiscard]] Array2D<T> interior() const {
    Array2D<T> out(nx(), ny());
    for (std::size_t i = 0; i < nx(); ++i) {
      const T* r = row(static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = 0; j < ny(); ++j) out(i, j) = r[j];
    }
    return out;
  }

 private:
  void allocate() {
    row_stride_ = padded_stride<T>(y_range_.size() + 2 * ghost_);
    storage_.assign((x_range_.size() + 2 * ghost_) * row_stride_, T{});
  }

  [[nodiscard]] std::size_t index(std::ptrdiff_t i, std::ptrdiff_t j) const noexcept {
    const auto g = static_cast<std::ptrdiff_t>(ghost_);
    assert(i >= -g && i < static_cast<std::ptrdiff_t>(nx()) + g);
    assert(j >= -g && j <= static_cast<std::ptrdiff_t>(ny()) + g);
    const auto stride = static_cast<std::ptrdiff_t>(row_stride_);
    return static_cast<std::size_t>((i + g) * stride + (j + g));
  }

  std::size_t global_nx_ = 0;
  std::size_t global_ny_ = 0;
  std::size_t ghost_ = 0;
  std::size_t row_stride_ = 0;
  Range x_range_;
  Range y_range_;
  std::vector<T, AlignedAllocator<T>> storage_;
};

}  // namespace ppa::mesh
