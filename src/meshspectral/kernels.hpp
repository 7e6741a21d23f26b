// ppa/meshspectral/kernels.hpp
//
// Layout- and SIMD-aware sweep machinery for the mesh archetype's hot
// loops. Where ops.hpp's for_region/for_rim call a per-point lambda (grid
// indexing re-derived at every point), the kernel layer hands whole *row
// segments* to the body: the body hoists its row base pointers once, then
// runs a contiguous unit-stride inner loop over raw pointers that the
// compiler can vectorize. field.hpp's FieldView2D/3D supply those pointers
// with the grids' padded/aligned layout.
//
//   * sweep_rows / sweep_pencils
//                          — row-segment / pencil-segment drivers matching
//                            for_region's traversal order;
//   * sweep_rows_tiled     — column-blocked variant: j-tiles sized to L1 so
//                            stencil input rows stay cached across the i
//                            sweep when rows are wider than cache;
//   * sweep_rim_rows / sweep_rim_pencils
//                          — rim drivers matching for_rim's order;
//   * jacobi_row / jacobi_sweep[_tiled], absdiff_max_row, copy_row
//                          — the shared 5-point Jacobi kernels used by the
//                            benches;
//   * jacobi_row_absdiff_max
//                          — jacobi_row carrying its own diffmax: the
//                            poisson app's sweep (it swaps its iterates,
//                            so it needs neither a reduction pass nor
//                            copy_row).
//
// The apps' stencil sweeps run only through this layer. Their plain
// per-point restatements are the test oracles: poisson_v1 for poisson,
// tests/seq_oracles.hpp for euler2d and fdtd3d.
//
// Bitwise contract: every kernel evaluates each output element with exactly
// the same floating-point expression and per-element operation order as a
// per-point loop would. Tiling only reorders *which element is computed
// when* — outputs are disjoint from inputs in all stencil sweeps, so
// results are bitwise-identical to those oracles. The reduction kernels
// (absdiff_max_row, jacobi_row_absdiff_max) run several independent maxima
// and combine them at the end; they do not depend on order because max is
// exact, so their result is bitwise the strict forward-order fold (NaN and
// signed zeros included). The build stays on portable flags by default
// (no fast-math anywhere; PPA_NATIVE_ARCH affects bench executables only),
// so no FMA-contraction or reassociation divergence is introduced.
//
// One exception: an output element whose inputs hold two NaNs with
// different bits may come out with either NaN's bits. The compiler is free
// to order the operands of a commutative add differently in two compiled
// copies of one expression, and an add of two NaNs returns one of them.
// Such an element is NaN in both results, so compare NaN results as a class
// (any NaN equals any NaN), not by their bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>

#include "meshspectral/field.hpp"
#include "meshspectral/plan.hpp"
#include "support/aligned.hpp"

#if defined(_MSC_VER)
#define PPA_RESTRICT __restrict
#else
#define PPA_RESTRICT __restrict__
#endif

namespace ppa::mesh {

namespace kern {

/// L1 budget a column tile should fit in, leaving headroom for the stack
/// and TLB (typical L1d is 32–48 KiB).
inline constexpr std::size_t kL1TileBytes = 32 * 1024;

/// Column-tile width (elements) for a sweep touching `bytes_per_point`
/// bytes of distinct streams per output element; multiple of a cache line
/// of doubles, clamped to a sane range.
[[nodiscard]] constexpr std::ptrdiff_t default_tile_j(
    std::size_t bytes_per_point) noexcept {
  const std::size_t raw =
      kL1TileBytes / (bytes_per_point ? bytes_per_point : 1);
  const std::size_t quant = raw / 8 * 8;
  return static_cast<std::ptrdiff_t>(std::clamp<std::size_t>(
      quant, 64, 1 << 20));
}

/// L2 budget: while a sweep's row streams all fit here, each input row is
/// still cache-resident when its neighboring output rows reuse it, so
/// column tiling cannot pay for its extra pass overhead.
inline constexpr std::size_t kL2SweepBytes = 2 * 1024 * 1024;

/// Adaptive tile width for a row sweep over rows of `row_points` elements:
/// 0 (untiled — one long unit-stride run per row) while the per-row stream
/// set fits in L2, else an L1-sized tile from default_tile_j. Pass the
/// same bytes_per_point as default_tile_j (all streams read or written per
/// output element).
[[nodiscard]] constexpr std::ptrdiff_t auto_tile_j(
    std::size_t bytes_per_point, std::ptrdiff_t row_points) noexcept {
  const std::size_t row_bytes =
      bytes_per_point * static_cast<std::size_t>(row_points > 0 ? row_points : 0);
  return row_bytes <= kL2SweepBytes ? 0 : default_tile_j(bytes_per_point);
}

/// Row-segment driver: body(i, j0, j1) once per row, same traversal order
/// as for_region(r, per-point f).
template <typename RowFn>
void sweep_rows(Region2 r, RowFn&& body) {
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) body(i, r.j0, r.j1);
}

/// Column-blocked row-segment driver: j-tiles outer, rows inner. Keeps a
/// stencil's input-row working set (one tile wide) resident in L1 across
/// the whole i sweep. Only the compute *schedule* changes — each output
/// element sees the same expression, so stencil results are bitwise equal
/// to sweep_rows as long as outputs don't feed later inputs (guaranteed by
/// the archetype's disjoint in/out rule). A reduction carried through the
/// body sees the elements in tile order, so only order-free ones belong
/// here — an exact max, as jacobi_row_absdiff_max folds — never a sum or
/// any other ordered reduction.
template <typename RowFn>
void sweep_rows_tiled(Region2 r, std::ptrdiff_t tile_j, RowFn&& body) {
  if (tile_j <= 0) tile_j = r.j1 - r.j0;
  for (std::ptrdiff_t jt = r.j0; jt < r.j1; jt += tile_j) {
    const std::ptrdiff_t je = std::min(jt + tile_j, r.j1);
    for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) body(i, jt, je);
  }
}

/// Rim driver: body(i, j0, j1) per contiguous row segment of r minus core,
/// same element order as for_rim(r, core, per-point f).
template <typename RowFn>
void sweep_rim_rows(Region2 r, Region2 core, RowFn&& body) {
  if (core.empty()) {
    sweep_rows(r, body);
    return;
  }
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    if (i < core.i0 || i >= core.i1) {
      body(i, r.j0, r.j1);
    } else {
      if (r.j0 < core.j0) body(i, r.j0, core.j0);
      if (core.j1 < r.j1) body(i, core.j1, r.j1);
    }
  }
}

/// Pencil-segment driver: body(i, j, k0, k1) once per z-pencil, same order
/// as for_region(Region3, per-point f).
template <typename PencilFn>
void sweep_pencils(Region3 r, PencilFn&& body) {
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i)
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) body(i, j, r.k0, r.k1);
}

/// 3-D rim driver matching for_rim(Region3)'s order, pencil segments.
template <typename PencilFn>
void sweep_rim_pencils(Region3 r, Region3 core, PencilFn&& body) {
  if (core.empty()) {
    sweep_pencils(r, body);
    return;
  }
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    if (i < core.i0 || i >= core.i1) {
      for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) body(i, j, r.k0, r.k1);
      continue;
    }
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) {
      if (j < core.j0 || j >= core.j1) {
        body(i, j, r.k0, r.k1);
      } else {
        if (r.k0 < core.k0) body(i, j, r.k0, core.k0);
        if (core.k1 < r.k1) body(i, j, core.k1, r.k1);
      }
    }
  }
}

// ------------------------------------------------- shared row kernels --

/// One row of the 5-point Jacobi update:
///   out[j] = (um[j] + up[j] + uc[j-1] + uc[j+1] - h2*f[j]) * 0.25
/// um/uc/up are the i-1/i/i+1 rows of the input grid; identical expression
/// and operand order to the poisson app's per-point legacy path.
template <typename T>
inline void jacobi_row(T* PPA_RESTRICT out, const T* PPA_RESTRICT um,
                       const T* PPA_RESTRICT uc, const T* PPA_RESTRICT up,
                       const T* PPA_RESTRICT f, T h2, std::ptrdiff_t j0,
                       std::ptrdiff_t j1) {
  for (std::ptrdiff_t j = j0; j < j1; ++j) {
    out[j] = (um[j] + up[j] + uc[j - 1] + uc[j + 1] - h2 * f[j]) *
             static_cast<T>(0.25);
  }
}

/// Whole-region Jacobi sweep over field views (row-at-a-time).
template <typename T>
void jacobi_sweep(FieldView2D<T> out, FieldView2D<const T> in,
                  FieldView2D<const T> f, T h2, Region2 r) {
  sweep_rows(r, [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
    jacobi_row(out.row(i), in.row(i - 1), in.row(i), in.row(i + 1), f.row(i),
               h2, j0, j1);
  });
}

/// Column-blocked Jacobi sweep; bitwise-identical outputs to jacobi_sweep.
template <typename T>
void jacobi_sweep_tiled(FieldView2D<T> out, FieldView2D<const T> in,
                        FieldView2D<const T> f, T h2, Region2 r,
                        std::ptrdiff_t tile_j = default_tile_j(5 * sizeof(T))) {
  sweep_rows_tiled(
      r, tile_j, [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
        jacobi_row(out.row(i), in.row(i - 1), in.row(i), in.row(i + 1),
                   f.row(i), h2, j0, j1);
      });
}

/// Running max of |a[j] - b[j]| over [j0, j1), starting from `running`.
/// Four independent running maxima (one per j mod 4) are combined at the
/// end, so the loop is not one serial max chain. The result is bitwise the
/// forward-order fold `running = std::max(running, |a[j] - b[j]|)`: max is
/// exact, every |a - b| is +0, positive or NaN, and std::max keeps its
/// first argument unless the second is strictly greater — so a NaN
/// element is skipped, a NaN or -0.0 `running` survives exactly as the
/// fold keeps it, and no lane can hold a value equal to but with other
/// bits than the fold's result (pinned by tests/test_kernels.cpp).
template <typename T>
[[nodiscard]] inline T absdiff_max_row(const T* PPA_RESTRICT a,
                                       const T* PPA_RESTRICT b,
                                       std::ptrdiff_t j0, std::ptrdiff_t j1,
                                       T running) {
  T m0 = running, m1 = running, m2 = running, m3 = running;
  std::ptrdiff_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    m0 = std::max(m0, std::abs(a[j] - b[j]));
    m1 = std::max(m1, std::abs(a[j + 1] - b[j + 1]));
    m2 = std::max(m2, std::abs(a[j + 2] - b[j + 2]));
    m3 = std::max(m3, std::abs(a[j + 3] - b[j + 3]));
  }
  for (; j < j1; ++j) m0 = std::max(m0, std::abs(a[j] - b[j]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

/// jacobi_row fused with absdiff_max_row(out, uc, j0, j1, running): writes
/// exactly jacobi_row's out[j] and returns `running` folded with
/// |out[j] - uc[j]| over [j0, j1), so a sweep carries its own diffmax
/// instead of re-reading both rows. The result is bitwise
/// absdiff_max_row's, hence the forward-order fold, by the same argument.
/// For double under GCC/Clang the loop runs on explicit two-wide vectors
/// (two accumulators, so four running maxima): `d > m ? d : m` keeps m
/// unless d is strictly greater, as std::max(m, d) does, and compiles to
/// maxpd; other types and compilers take the plain fold.
template <typename T>
[[nodiscard]] inline T jacobi_row_absdiff_max(
    T* PPA_RESTRICT out, const T* PPA_RESTRICT um, const T* PPA_RESTRICT uc,
    const T* PPA_RESTRICT up, const T* PPA_RESTRICT f, T h2, std::ptrdiff_t j0,
    std::ptrdiff_t j1, T running) {
  std::ptrdiff_t j = j0;
#if defined(__GNUC__)
  if constexpr (std::is_same_v<T, double>) {
    using v2d = double __attribute__((vector_size(16)));
    using v2u = unsigned long long __attribute__((vector_size(16)));
    const auto load = [](const double* p) {
      v2d v;
      __builtin_memcpy(&v, p, sizeof v);
      return v;
    };
    const v2d h2v = {h2, h2};
    const v2d quarter = {0.25, 0.25};
    const v2u magnitude = {~0ULL >> 1, ~0ULL >> 1};
    v2d m0 = {running, running};
    v2d m1 = m0;
    const auto step = [&](std::ptrdiff_t k, v2d& m) {
      const v2d c = load(uc + k);
      const v2d v =
          (load(um + k) + load(up + k) + load(uc + k - 1) + load(uc + k + 1) -
           h2v * load(f + k)) *
          quarter;
      __builtin_memcpy(out + k, &v, sizeof v);
      const v2d d = (v2d)((v2u)(v - c) & magnitude);
      m = d > m ? d : m;
    };
    for (; j + 4 <= j1; j += 4) {
      step(j, m0);
      step(j + 2, m1);
    }
    const v2d m = m1 > m0 ? m1 : m0;
    running = std::max(m[0], m[1]);
  }
#endif
  for (; j < j1; ++j) {
    out[j] = (um[j] + up[j] + uc[j - 1] + uc[j + 1] - h2 * f[j]) *
             static_cast<T>(0.25);
    running = std::max(running, std::abs(out[j] - uc[j]));
  }
  return running;
}

/// Contiguous row-segment copy.
template <typename T>
inline void copy_row(T* PPA_RESTRICT dst, const T* PPA_RESTRICT src,
                     std::ptrdiff_t j0, std::ptrdiff_t j1) {
  std::copy(src + j0, src + j1, dst + j0);
}

}  // namespace kern
}  // namespace ppa::mesh
