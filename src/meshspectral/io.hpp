// ppa/meshspectral/io.hpp
//
// File input/output operations for distributed grids (paper section 4.1:
// "one possibility is to operate on all data sequentially in a single
// process, which implies a data distribution in which all data is collected
// in a single process"). We implement the gather-to-root strategy: sections
// are collected at the root, assembled into a dense array, and written
// there; reads scatter from the root.
//
// Thread-safety: every function here is a collective — all ranks of the
// process grid must call it in the same order, and each call blocks until
// its gathers/scatters complete. Only the root touches the filesystem; the
// returned dense array is owned by the caller (empty on non-root ranks).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "meshspectral/blockset.hpp"
#include "meshspectral/grid2d.hpp"
#include "mpl/process.hpp"
#include "mpl/topology.hpp"
#include "support/ndarray.hpp"

namespace ppa::mesh {

/// Assemble the full grid on `root` from every process's interior section.
/// Returns the dense global array on root, an empty array elsewhere.
template <mpl::Wire T>
Array2D<T> gather_grid(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                       const Grid2D<T>& grid, int root = 0) {
  // Each rank contributes its x/y ranges plus its interior, flattened.
  const std::uint64_t header[4] = {grid.x_range().lo, grid.x_range().hi,
                                   grid.y_range().lo, grid.y_range().hi};
  auto headers = p.gather_parts(std::span<const std::uint64_t>(header, 4), root);
  const auto flat = grid.interior();
  auto sections = p.gather_parts(flat.flat(), root);
  if (p.rank() != root) return {};

  Array2D<T> out(grid.global_nx(), grid.global_ny());
  for (int r = 0; r < pgrid.size(); ++r) {
    const auto& h = headers[static_cast<std::size_t>(r)];
    const auto& s = sections[static_cast<std::size_t>(r)];
    const std::size_t xlo = h[0], xhi = h[1], ylo = h[2], yhi = h[3];
    std::size_t k = 0;
    for (std::size_t i = xlo; i < xhi; ++i) {
      for (std::size_t j = ylo; j < yhi; ++j) out(i, j) = s[k++];
    }
  }
  return out;
}

/// Scatter a dense global array from `root` into each process's section
/// interior. `dense` is ignored on non-root ranks.
template <mpl::Wire T>
void scatter_grid(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                  const Array2D<T>& dense, Grid2D<T>& grid, int root = 0) {
  std::vector<std::vector<T>> parts;
  if (p.rank() == root) {
    parts.resize(static_cast<std::size_t>(pgrid.size()));
    for (int r = 0; r < pgrid.size(); ++r) {
      const auto [px, py] = pgrid.coords_of(r);
      const Range xr = block_range(grid.global_nx(),
                                   static_cast<std::size_t>(pgrid.npx()),
                                   static_cast<std::size_t>(px));
      const Range yr = block_range(grid.global_ny(),
                                   static_cast<std::size_t>(pgrid.npy()),
                                   static_cast<std::size_t>(py));
      auto& part = parts[static_cast<std::size_t>(r)];
      part.reserve(xr.size() * yr.size());
      for (std::size_t i = xr.lo; i < xr.hi; ++i) {
        for (std::size_t j = yr.lo; j < yr.hi; ++j) part.push_back(dense(i, j));
      }
    }
  }
  const auto mine = p.scatter(parts, root);
  grid.unpack_region(0, static_cast<std::ptrdiff_t>(grid.nx()), 0,
                     static_cast<std::ptrdiff_t>(grid.ny()), mine);
}

// ------------------------------------------------------- block sets --

/// Assemble the full grid on `root` from a block-decomposed domain: every
/// rank contributes each of its blocks tagged with its *global block
/// coordinates* (id + index window), so assembly is correct under any
/// block→rank distribution — contiguous, round-robin, oversubscribed or
/// deliberately imbalanced. Deallocated blocks contribute no data and
/// assemble as exact zeros (their defined value). Returns the dense global
/// array on root, an empty array elsewhere. `proj` maps each interior cell
/// to the gathered value (e.g. one component of a multi-field state), so a
/// projection needs no staging copy of the block set.
template <typename T, typename Proj = std::identity,
          mpl::Wire U = std::remove_cvref_t<std::invoke_result_t<Proj&, const T&>>>
Array2D<U> gather_blocks(mpl::Process& p, const BlockSet<T>& blocks,
                         int root = 0, Proj proj = {}) {
  const auto& layout = blocks.layout();
  // Per-block header: {id, xlo, xhi, ylo, yhi, allocated}. Data part:
  // interiors of *allocated* blocks only, concatenated in header order.
  std::vector<std::uint64_t> headers;
  std::vector<U> data;
  headers.reserve(blocks.size() * 6);
  std::size_t cells = 0;
  for (const auto& b : blocks) cells += b.allocated() ? b.nx() * b.ny() : 0;
  data.reserve(cells);
  for (const auto& b : blocks) {
    headers.insert(headers.end(),
                   {static_cast<std::uint64_t>(b.id()), b.x_range().lo,
                    b.x_range().hi, b.y_range().lo, b.y_range().hi,
                    static_cast<std::uint64_t>(b.allocated() ? 1 : 0)});
    if (!b.allocated()) continue;
    const auto& g = b.grid();
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const T* r = g.row(static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = 0; j < g.ny(); ++j) data.push_back(proj(r[j]));
    }
  }
  auto all_headers = p.gather_parts(
      std::span<const std::uint64_t>(headers.data(), headers.size()), root);
  auto all_data =
      p.gather_parts(std::span<const U>(data.data(), data.size()), root);
  if (p.rank() != root) return {};

  Array2D<U> out(layout.global_nx, layout.global_ny);  // zero-initialized
  for (std::size_t r = 0; r < all_headers.size(); ++r) {
    const auto& h = all_headers[r];
    const auto& d = all_data[r];
    std::size_t k = 0;
    for (std::size_t b = 0; b + 6 <= h.size(); b += 6) {
      const std::size_t xlo = h[b + 1], xhi = h[b + 2];
      const std::size_t ylo = h[b + 3], yhi = h[b + 4];
      if (h[b + 5] == 0) continue;  // deallocated: stays zero
      for (std::size_t i = xlo; i < xhi; ++i) {
        for (std::size_t j = ylo; j < yhi; ++j) out(i, j) = d[k++];
      }
    }
  }
  return out;
}

/// Scatter a dense global array from `root` into a block-decomposed domain.
/// Each rank receives its owned blocks' windows (by global block
/// coordinates, any distribution). A destination block whose window is
/// entirely T{} stays deallocated if it was — so sparse block sets
/// round-trip through gather/scatter without densifying; any non-trivial
/// window allocates its block. `dense` is ignored on non-root ranks.
template <mpl::Wire T>
void scatter_blocks(mpl::Process& p, const Array2D<T>& dense,
                    BlockSet<T>& blocks, int root = 0) {
  const auto& layout = blocks.layout();
  const auto& owner = blocks.owner_map();
  std::vector<std::vector<T>> parts;
  if (p.rank() == root) {
    parts.resize(static_cast<std::size_t>(p.size()));
    // Root walks blocks in ascending id per rank — the same order each
    // receiver stores its blocks in, so no per-block header is needed.
    for (int id = 0; id < layout.nblocks(); ++id) {
      const Range xr = layout.x_range(layout.bx_of(id));
      const Range yr = layout.y_range(layout.by_of(id));
      auto& part = parts[static_cast<std::size_t>(owner[static_cast<std::size_t>(id)])];
      part.reserve(part.size() + xr.size() * yr.size());
      for (std::size_t i = xr.lo; i < xr.hi; ++i) {
        for (std::size_t j = yr.lo; j < yr.hi; ++j) part.push_back(dense(i, j));
      }
    }
  }
  const auto mine = p.scatter(parts, root);
  std::size_t k = 0;
  for (auto& b : blocks) {
    const std::size_t n = b.nx() * b.ny();
    const std::span<const T> window(mine.data() + k, n);
    k += n;
    if (!b.allocated()) {
      bool trivial = true;
      for (const T& v : window) {
        if (!(v == T{})) {
          trivial = false;
          break;
        }
      }
      if (trivial) continue;  // sparse round-trip: stay deallocated
      b.allocate();
    }
    b.grid().unpack_region(0, static_cast<std::ptrdiff_t>(b.nx()), 0,
                           static_cast<std::ptrdiff_t>(b.ny()), window);
  }
}

/// Write a grid to a simple text file from the root process (one row per
/// line). A file I/O operation in the archetype's sense: gather + serial
/// write in one process.
template <mpl::Wire T>
void write_grid_text(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                     const Grid2D<T>& grid, const std::string& path, int root = 0) {
  const auto dense = gather_grid(p, pgrid, grid, root);
  if (p.rank() != root) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_grid_text: cannot open " + path);
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      out << dense(i, j) << (j + 1 == dense.cols() ? '\n' : ' ');
    }
  }
}

}  // namespace ppa::mesh
