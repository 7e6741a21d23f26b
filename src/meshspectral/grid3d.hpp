// ppa/meshspectral/grid3d.hpp
//
// Local section of a 3-D grid distributed over a 3-D Cartesian process grid
// with ghost layers — the substrate for the paper's three-dimensional mesh
// archetype applications (the FDTD electromagnetics code of section 7.2).
// Ghost refresh lives in plan.hpp (persistent split-phase plans).
//
// Storage layout: the innermost (z) extent is padded so every (i, j) pencil
// starts on a cache-line boundary (base pointer 64-byte aligned, pencil
// stride rounded up with ppa::padded_stride). `pencil(i, j)` exposes the
// pencil base pointer for the kernel layer; padding cells are never read
// and never packed.
//
// Thread-safety and ownership: a Grid3D is owned by exactly one rank
// (thread); the container itself performs no synchronization and no
// communication. Accessors never block.
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
class Grid3D {
 public:
  Grid3D() = default;

  Grid3D(std::size_t gnx, std::size_t gny, std::size_t gnz,
         const mpl::CartGrid3D& pgrid, int rank, std::size_t ghost = 1)
      : global_{gnx, gny, gnz}, ghost_(ghost) {
    const auto c = pgrid.coords_of(rank);
    range_[0] = block_range(gnx, static_cast<std::size_t>(pgrid.npx()),
                            static_cast<std::size_t>(c[0]));
    range_[1] = block_range(gny, static_cast<std::size_t>(pgrid.npy()),
                            static_cast<std::size_t>(c[1]));
    range_[2] = block_range(gnz, static_cast<std::size_t>(pgrid.npz()),
                            static_cast<std::size_t>(c[2]));
    pencil_stride_ = padded_stride<T>(range_[2].size() + 2 * ghost);
    storage_.assign((range_[0].size() + 2 * ghost) *
                        (range_[1].size() + 2 * ghost) * pencil_stride_,
                    T{});
  }

  /// Whole-grid (single-process) constructor.
  Grid3D(std::size_t gnx, std::size_t gny, std::size_t gnz, std::size_t ghost = 1)
      : Grid3D(gnx, gny, gnz, mpl::CartGrid3D{1, 1, 1}, 0, ghost) {}

  [[nodiscard]] std::size_t nx() const noexcept { return range_[0].size(); }
  [[nodiscard]] std::size_t ny() const noexcept { return range_[1].size(); }
  [[nodiscard]] std::size_t nz() const noexcept { return range_[2].size(); }
  [[nodiscard]] std::size_t global_nx() const noexcept { return global_[0]; }
  [[nodiscard]] std::size_t global_ny() const noexcept { return global_[1]; }
  [[nodiscard]] std::size_t global_nz() const noexcept { return global_[2]; }
  [[nodiscard]] std::size_t ghost() const noexcept { return ghost_; }
  [[nodiscard]] Range range(int axis) const noexcept {
    return range_[static_cast<std::size_t>(axis)];
  }

  /// Element distance between consecutive (i, j) pencils along z
  /// (>= nz() + 2*ghost(); rounded so every pencil base is aligned).
  [[nodiscard]] std::size_t pencil_stride() const noexcept {
    return pencil_stride_;
  }

  /// Base pointer of the z-pencil at (i, j): pencil(i, j)[k] ==
  /// (*this)(i, j, k) for k in [-ghost, nz()+ghost).
  [[nodiscard]] T* pencil(std::ptrdiff_t i, std::ptrdiff_t j) noexcept {
    return storage_.data() + index(i, j, 0);
  }
  [[nodiscard]] const T* pencil(std::ptrdiff_t i, std::ptrdiff_t j) const noexcept {
    return storage_.data() + index(i, j, 0);
  }

  [[nodiscard]] std::size_t global_x(std::ptrdiff_t i) const noexcept {
    return range_[0].lo + static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::size_t global_y(std::ptrdiff_t j) const noexcept {
    return range_[1].lo + static_cast<std::size_t>(j);
  }
  [[nodiscard]] std::size_t global_z(std::ptrdiff_t k) const noexcept {
    return range_[2].lo + static_cast<std::size_t>(k);
  }

  T& operator()(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) noexcept {
    return storage_[index(i, j, k)];
  }
  const T& operator()(std::ptrdiff_t i, std::ptrdiff_t j,
                      std::ptrdiff_t k) const noexcept {
    return storage_[index(i, j, k)];
  }

  void fill(const T& v) { storage_.assign(storage_.size(), v); }

  template <typename F>
  void init_from_global(F&& f) {
    for (std::size_t i = 0; i < nx(); ++i)
      for (std::size_t j = 0; j < ny(); ++j) {
        T* p = pencil(static_cast<std::ptrdiff_t>(i),
                      static_cast<std::ptrdiff_t>(j));
        for (std::size_t k = 0; k < nz(); ++k)
          p[k] = f(range_[0].lo + i, range_[1].lo + j, range_[2].lo + k);
      }
  }

  /// Pack/unpack rectangular regions (ghost-relative coordinates allowed).
  /// Copies pencil segments, so the padded stride never leaks into the wire
  /// format.
  [[nodiscard]] std::vector<T> pack_region(std::ptrdiff_t i0, std::ptrdiff_t i1,
                                           std::ptrdiff_t j0, std::ptrdiff_t j1,
                                           std::ptrdiff_t k0, std::ptrdiff_t k1) const {
    std::vector<T> buf;
    buf.reserve(static_cast<std::size_t>((i1 - i0) * (j1 - j0) * (k1 - k0)));
    for (std::ptrdiff_t i = i0; i < i1; ++i)
      for (std::ptrdiff_t j = j0; j < j1; ++j) {
        const T* p = pencil(i, j);
        buf.insert(buf.end(), p + k0, p + k1);
      }
    return buf;
  }
  void unpack_region(std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t j0,
                     std::ptrdiff_t j1, std::ptrdiff_t k0, std::ptrdiff_t k1,
                     std::span<const T> buf) {
    assert(buf.size() == static_cast<std::size_t>((i1 - i0) * (j1 - j0) * (k1 - k0)));
    const auto w = static_cast<std::size_t>(k1 - k0);
    std::size_t n = 0;
    for (std::ptrdiff_t i = i0; i < i1; ++i)
      for (std::ptrdiff_t j = j0; j < j1; ++j, n += w) {
        std::copy(buf.data() + n, buf.data() + n + w, pencil(i, j) + k0);
      }
  }
  void unpack_region(std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t j0,
                     std::ptrdiff_t j1, std::ptrdiff_t k0, std::ptrdiff_t k1,
                     const std::vector<T>& buf) {
    unpack_region(i0, i1, j0, j1, k0, k1, std::span<const T>(buf));
  }

  /// Local interior fold.
  template <typename Acc, typename F>
  Acc fold_interior(Acc init, F&& combine) const {
    Acc acc = std::move(init);
    for (std::size_t i = 0; i < nx(); ++i)
      for (std::size_t j = 0; j < ny(); ++j) {
        const T* p = pencil(static_cast<std::ptrdiff_t>(i),
                            static_cast<std::ptrdiff_t>(j));
        for (std::size_t k = 0; k < nz(); ++k)
          acc = combine(std::move(acc), p[k]);
      }
    return acc;
  }

 private:
  [[nodiscard]] std::size_t index(std::ptrdiff_t i, std::ptrdiff_t j,
                                  std::ptrdiff_t k) const noexcept {
    const auto g = static_cast<std::ptrdiff_t>(ghost_);
    assert(i >= -g && i < static_cast<std::ptrdiff_t>(nx()) + g);
    assert(j >= -g && j < static_cast<std::ptrdiff_t>(ny()) + g);
    assert(k >= -g && k <= static_cast<std::ptrdiff_t>(nz()) + g);
    const auto sy = static_cast<std::ptrdiff_t>(range_[1].size()) + 2 * g;
    const auto sz = static_cast<std::ptrdiff_t>(pencil_stride_);
    return static_cast<std::size_t>(((i + g) * sy + (j + g)) * sz + (k + g));
  }

  std::size_t global_[3] = {0, 0, 0};
  std::size_t ghost_ = 0;
  std::size_t pencil_stride_ = 0;
  Range range_[3];
  std::vector<T, AlignedAllocator<T>> storage_;
};

}  // namespace ppa::mesh
