// ppa/meshspectral/ops.hpp
//
// The mesh-spectral archetype's operation classes (paper section 4.1):
//
//   * grid operations     — same operation at every point, reading the point
//                           and possibly neighbors (input and output variable
//                           sets must be disjoint when neighbors are read);
//   * reduction operations — combine all grid values into a single value,
//                           available to *all* processes afterwards ("after
//                           completion of a reduction operation all processes
//                           have access to its result");
//   * row/column operations — see rowcol.hpp;
//   * file I/O operations  — see io.hpp.
//
// Split-phase support: a stencil grid operation over the local section
// splits into a ghost-independent *core* (points at least `width` cells from
// the section edge, computable while a halo exchange is in flight) and a
// ghost-dependent *rim* (the remaining border of the section, computable
// only after end_exchange). core_region / for_region / for_rim express that
// split; apply_stencil_overlapped packages the full begin / core / end / rim
// pattern around an ExchangePlan2D.
//
// Thread-safety: all helpers run on the calling rank's data only and do not
// synchronize; the reduction operations communicate via the Process handle
// and must be called by every rank in the same order (SPMD discipline).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "meshspectral/blockplan.hpp"
#include "meshspectral/grid2d.hpp"
#include "meshspectral/grid3d.hpp"
#include "meshspectral/kernels.hpp"
#include "meshspectral/plan.hpp"
#include "mpl/process.hpp"

namespace ppa::mesh {

/// Apply `f(i, j)` over the local interior (serial within the process; the
/// concurrency is across processes). f receives *local* indices; use
/// grid.global_x/global_y for global coordinates.
template <typename T, typename F>
void for_interior(const Grid2D<T>& grid, F&& f) {
  const auto nx = static_cast<std::ptrdiff_t>(grid.nx());
  const auto ny = static_cast<std::ptrdiff_t>(grid.ny());
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) f(i, j);
  }
}

// ---------------------------------------------------- core/rim iteration --
//
// Region2/Region3 (the half-open local-index rectangles) are defined in
// plan.hpp and shared with the exchange plans' pack/unpack rectangles.

/// The full local interior of a section as a region.
template <typename T>
[[nodiscard]] Region2 interior_region(const Grid2D<T>& grid) {
  return {0, static_cast<std::ptrdiff_t>(grid.nx()), 0,
          static_cast<std::ptrdiff_t>(grid.ny())};
}

/// Intersection of `r` with the ghost-independent core for stencil width
/// `w`: points whose w-neighborhood stays inside the local section.
template <typename T>
[[nodiscard]] Region2 core_region(const Grid2D<T>& grid, std::ptrdiff_t w,
                                  Region2 r) {
  return {std::max(r.i0, w),
          std::min(r.i1, static_cast<std::ptrdiff_t>(grid.nx()) - w),
          std::max(r.j0, w),
          std::min(r.j1, static_cast<std::ptrdiff_t>(grid.ny()) - w)};
}
template <typename T>
[[nodiscard]] Region2 core_region(const Grid2D<T>& grid, std::ptrdiff_t w) {
  return core_region(grid, w, interior_region(grid));
}

/// Apply f(i, j) over a region.
template <typename F>
void for_region(Region2 r, F&& f) {
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) f(i, j);
  }
}

/// Apply f(i, j) over `r` minus `core` (each point exactly once, in
/// ascending (i, j) order for cache-friendly row traversal). `core` must
/// have been produced by core_region(grid, w, r) (i.e. be a sub-rectangle
/// of `r`); an empty core degenerates to the whole of `r`.
template <typename F>
void for_rim(Region2 r, Region2 core, F&& f) {
  if (core.empty()) {
    for_region(r, f);
    return;
  }
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    if (i < core.i0 || i >= core.i1) {
      for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) f(i, j);
    } else {
      for (std::ptrdiff_t j = r.j0; j < core.j0; ++j) f(i, j);
      for (std::ptrdiff_t j = core.j1; j < r.j1; ++j) f(i, j);
    }
  }
}

/// 3-D equivalents.
template <typename T>
[[nodiscard]] Region3 interior_region(const Grid3D<T>& grid) {
  return {0, static_cast<std::ptrdiff_t>(grid.nx()),
          0, static_cast<std::ptrdiff_t>(grid.ny()),
          0, static_cast<std::ptrdiff_t>(grid.nz())};
}

template <typename T>
[[nodiscard]] Region3 core_region(const Grid3D<T>& grid, std::ptrdiff_t w,
                                  Region3 r) {
  return {std::max(r.i0, w),
          std::min(r.i1, static_cast<std::ptrdiff_t>(grid.nx()) - w),
          std::max(r.j0, w),
          std::min(r.j1, static_cast<std::ptrdiff_t>(grid.ny()) - w),
          std::max(r.k0, w),
          std::min(r.k1, static_cast<std::ptrdiff_t>(grid.nz()) - w)};
}
template <typename T>
[[nodiscard]] Region3 core_region(const Grid3D<T>& grid, std::ptrdiff_t w) {
  return core_region(grid, w, interior_region(grid));
}

template <typename F>
void for_region(Region3 r, F&& f) {
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) {
      for (std::ptrdiff_t k = r.k0; k < r.k1; ++k) f(i, j, k);
    }
  }
}

/// 3-D rim traversal, ascending (i, j, k) order (see the 2-D overload).
template <typename F>
void for_rim(Region3 r, Region3 core, F&& f) {
  if (core.empty()) {
    for_region(r, f);
    return;
  }
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    if (i < core.i0 || i >= core.i1) {
      for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) {
        for (std::ptrdiff_t k = r.k0; k < r.k1; ++k) f(i, j, k);
      }
      continue;
    }
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) {
      if (j < core.j0 || j >= core.j1) {
        for (std::ptrdiff_t k = r.k0; k < r.k1; ++k) f(i, j, k);
      } else {
        for (std::ptrdiff_t k = r.k0; k < core.k0; ++k) f(i, j, k);
        for (std::ptrdiff_t k = core.k1; k < r.k1; ++k) f(i, j, k);
      }
    }
  }
}

// --------------------------------------------------------- grid operations --

/// Pointwise grid operation: out(i,j) = f(in(i,j)). `out` and `in` may be
/// the same grid (no neighbor reads, so aliasing is safe).
template <typename T, typename U, typename F>
void apply_pointwise(Grid2D<U>& out, const Grid2D<T>& in, F&& f) {
  for_interior(in, [&](std::ptrdiff_t i, std::ptrdiff_t j) { out(i, j) = f(in(i, j)); });
}

/// Stencil grid operation: out(i,j) = f(in, i, j) where f may read neighbor
/// points of `in` within the ghost width. Per the archetype's restriction,
/// `out` must be distinct from `in` (checked by address). The output row
/// base is hoisted out of the inner loop (one strided index computation per
/// row, not per point); f stays per-point, so this is the generic fallback —
/// fully restructured sweeps live in kernels.hpp.
template <typename T, typename U, typename F>
void apply_stencil(Grid2D<U>& out, const Grid2D<T>& in, F&& f) {
  assert(static_cast<const void*>(&out) != static_cast<const void*>(&in) &&
         "stencil operations require disjoint input and output grids");
  const auto nx = static_cast<std::ptrdiff_t>(in.nx());
  const auto ny = static_cast<std::ptrdiff_t>(in.ny());
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    U* PPA_RESTRICT orow = out.row(i);
    for (std::ptrdiff_t j = 0; j < ny; ++j) orow[j] = f(in, i, j);
  }
}

/// Stencil grid operation with the halo exchange overlapped: begin the
/// plan's exchange on `in`, update the ghost-independent core while the
/// halo messages are in flight, complete the exchange, then update the rim.
/// `width` is the stencil radius (<= the plan's ghost width). Results are
/// identical to exchange-then-apply_stencil; only the schedule differs.
/// `in` is non-const because end_exchange writes its ghost cells (the
/// interior is never written).
template <typename T, typename U, typename F>
void apply_stencil_overlapped(mpl::Process& p, ExchangePlan2D& plan,
                              Grid2D<U>& out, Grid2D<T>& in, std::ptrdiff_t width,
                              F&& f) {
  assert(static_cast<const void*>(&out) != static_cast<const void*>(&in) &&
         "stencil operations require disjoint input and output grids");
  assert(width <= static_cast<std::ptrdiff_t>(plan.ghost()));
  plan.begin_exchange(p, in);
  const Region2 all = interior_region(in);
  const Region2 core = core_region(in, width, all);
  kern::sweep_rows(core, [&](std::ptrdiff_t i, std::ptrdiff_t j0,
                             std::ptrdiff_t j1) {
    U* PPA_RESTRICT orow = out.row(i);
    for (std::ptrdiff_t j = j0; j < j1; ++j) orow[j] = f(in, i, j);
  });
  plan.end_exchange(p, in);
  kern::sweep_rim_rows(all, core, [&](std::ptrdiff_t i, std::ptrdiff_t j0,
                                      std::ptrdiff_t j1) {
    U* PPA_RESTRICT orow = out.row(i);
    for (std::ptrdiff_t j = j0; j < j1; ++j) orow[j] = f(in, i, j);
  });
}

// ------------------------------------------------------------- reductions --

/// Local (per-process) reduction over the interior.
template <typename T, typename Acc, typename F>
Acc local_reduce(const Grid2D<T>& grid, Acc init, F&& combine) {
  Acc acc = std::move(init);
  for_interior(grid, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
    acc = combine(std::move(acc), grid(i, j));
  });
  return acc;
}

/// Full reduction operation: local reduction followed by a combine across
/// processes; every process receives the result (the archetype's
/// postcondition, implemented with recursive doubling where possible).
/// `combine` must be associative.
template <typename T, typename Acc, typename LocalF, typename CombineOp>
Acc reduce(mpl::Process& p, const Grid2D<T>& grid, Acc init, LocalF&& local_combine,
           CombineOp&& combine) {
  const Acc local = local_reduce(grid, std::move(init), local_combine);
  return p.allreduce(local, combine);
}

/// Convenience reductions.
template <typename T>
T reduce_max(mpl::Process& p, const Grid2D<T>& grid, T init) {
  return reduce(
      p, grid, init, [](T a, const T& b) { return a < b ? b : a; },
      mpl::MaxOp{});
}
template <typename T>
T reduce_sum(mpl::Process& p, const Grid2D<T>& grid, T init = T{}) {
  return reduce(
      p, grid, init, [](T a, const T& b) { return a + b; }, mpl::SumOp{});
}

}  // namespace ppa::mesh
