// ci/meshspectral_warning_check.cpp
//
// Warning canary for the meshspectral layer: this translation unit includes
// every public meshspectral header and explicitly instantiates the grid and
// plan templates, and is compiled with -Wall -Wextra -Werror (see
// CMakeLists.txt). Any warning introduced in src/meshspectral/ fails the
// build here even if no test or app happens to instantiate the offending
// code path.
#include <array>
#include <utility>

#include "meshspectral/meshspectral.hpp"

namespace ppa::mesh {

template class Grid2D<double>;
template class Grid2D<float>;
template class Grid3D<double>;
template class RowDistributed<double>;
template class ColDistributed<double>;
template class MeshBlock<double>;
template class MeshBlock<float>;
template class BlockSet<double>;
template class BlockSet<float>;
template struct FieldView2D<double>;
template struct FieldView2D<const double>;
template struct FieldView3D<double>;
template struct FieldView3D<const double>;
template class SoAField2D<double>;
template class SoAField2D<float>;

namespace {

/// Force-instantiate the function templates the classes alone do not cover.
[[maybe_unused]] void instantiate_all(mpl::Process& p, const mpl::CartGrid2D& pg2,
                                      const mpl::CartGrid3D& pg3) {
  Grid2D<double> g2(8, 8, pg2, 0, 1);
  Grid3D<double> g3(8, 8, 8, pg3, 0, 1);
  ExchangePlan2D plan2(pg2, 0, g2);
  plan2.begin_exchange(p, g2);
  plan2.end_exchange(p, g2);
  ExchangePlan3D plan3(pg3, 0, g3);
  plan3.begin_exchange(p, g3);
  plan3.end_exchange(p, g3);

  Grid2D<double> out(8, 8, pg2, 0, 1);
  apply_stencil_overlapped(
      p, plan2, out, g2, 1,
      [](const Grid2D<double>& u, std::ptrdiff_t i, std::ptrdiff_t j) {
        return u(i, j) + u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1);
      });
  for_rim(interior_region(g2), core_region(g2, 1),
          [](std::ptrdiff_t, std::ptrdiff_t) {});
  for_rim(interior_region(g3), core_region(g3, 1),
          [](std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t) {});

  RowDistributed<double> rows(8, 8, 1, 0);
  ColDistributed<double> cols(8, 8, 1, 0);
  redistribute(p, rows, cols);
  redistribute(p, cols, rows);
  RowsToColsPlan r2c(1, 0, 8, 8);
  r2c.begin_exchange(p, rows);
  r2c.end_exchange(p, cols);
  ColsToRowsPlan c2r(1, 0, 8, 8);
  c2r.begin_exchange(p, cols);
  c2r.end_exchange(p, rows);

  Global<double> gv(0.0);
  gv.store_from(p, 1.0);
  gv.store_replicated(p, 1.0);
  gv.store_reduced(p, 1.0, mpl::SumOp{});

  (void)gather_grid(p, pg2, g2);
  scatter_grid(p, pg2, Array2D<double>(8, 8), g2);
  (void)reduce_sum(p, g2);
  (void)reduce_max(p, g2, 0.0);
  (void)gather_matrix(p, rows);

  // Multi-block substrate: block set, batched/sparse exchange, block I/O.
  BlockLayout2D layout;
  layout.global_nx = layout.global_ny = 8;
  layout.nbx = layout.nby = 2;
  layout.periodic = Periodicity{true, false};
  BlockSet<double> bs(layout, distribute_blocks_contiguous(4, 1), 0);
  BlockSet<float> bsf(layout, distribute_blocks_round_robin(4, 1), 0,
                      /*allocate_all=*/false);
  bs.init_from_global([](std::size_t, std::size_t) { return 0.0; });
  (void)bs.storage_bytes();
  (void)bs.dense_bytes();
  (void)bs.sweep_deallocate([](double) { return false; }, 2);
  BlockExchangePlan2D bplan(
      bs, BlockExchangeOptions{/*corners=*/true, 0, /*sparse=*/true, 0.0});
  bplan.begin_exchange_all(p, bs);
  bplan.end_exchange_all(p, bs);
  bplan.exchange_all(p, bs);
  BlockExchangePlan2D fplan(bsf);
  fplan.exchange_all(p, bsf);
  (void)bplan.off_rank_message_count();
  (void)bplan.local_copy_count();
  (void)gather_blocks(p, bs);
  (void)gather_blocks(p, bs, 0, [](double v) { return static_cast<float>(v); });
  (void)local_reduce(bs, 0.0, [](double a, double v) { return a + v; });
  (void)block_layout(pg2, 8, 8, Periodicity{true, false});
  (void)block_owners(pg2);
  (void)block_layout(BlockConfig{2, 2, {}}, 4, 8, 8);
  (void)block_owners(BlockConfig{}, 4);
  (void)require_domain(layout, 8, 8, Periodicity{true, false}, "check");
  scatter_blocks(p, Array2D<double>(8, 8), bs);

  // Kernel layer: field views, sweep drivers, row kernels, SoA field.
  static_assert(ppa::padded_stride<double>(10) % 8 == 0);
  auto v2 = field_view(g2);
  auto cv2 = field_view(std::as_const(g2));
  auto v3 = field_view(g3);
  auto cv3 = field_view(std::as_const(g3));
  (void)cv3;
  (void)v2.row(0);
  (void)v3.pencil(0, 0);
  const Region2 r2 = interior_region(g2);
  const Region3 r3 = interior_region(g3);
  kern::sweep_rows(r2, [](std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t) {});
  static_assert(kern::auto_tile_j(5 * sizeof(double), 1024) == 0);
  static_assert(kern::auto_tile_j(5 * sizeof(double), 1 << 20) ==
                kern::default_tile_j(5 * sizeof(double)));
  kern::sweep_rows_tiled(r2, kern::default_tile_j(5 * sizeof(double)),
                         [](std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t) {});
  kern::sweep_rim_rows(r2, core_region(g2, 1),
                       [](std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t) {});
  kern::sweep_pencils(
      r3, [](std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t) {});
  kern::sweep_rim_pencils(
      r3, core_region(g3, 1),
      [](std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t) {});
  auto ov = field_view(out);
  kern::jacobi_sweep(ov, cv2, cv2, 0.25, core_region(g2, 1));
  kern::jacobi_sweep_tiled(ov, cv2, cv2, 0.25, core_region(g2, 1));
  kern::jacobi_row(ov.row(1), cv2.row(0), cv2.row(1), cv2.row(2), cv2.row(1),
                   0.25, 1, 7);
  (void)kern::absdiff_max_row(ov.row(1), cv2.row(1), 0, 8, 0.0);
  (void)kern::jacobi_row_absdiff_max(ov.row(1), cv2.row(0), cv2.row(1),
                                     cv2.row(2), cv2.row(1), 0.25, 1, 7, 0.0);
  float fo[10] = {}, fi[10] = {};
  (void)kern::jacobi_row_absdiff_max(fo, fi, fi + 1, fi, fi, 0.25f, 1, 8, 0.0f);
  kern::copy_row(ov.row(0), cv2.row(0), 0, 8);
  SoAField2D<double> soa(8, 8, 1, 4);
  Grid2D<std::array<double, 4>> aos(8, 8, 1);
  soa.from_aos(aos);
  soa.to_aos(aos);
  (void)soa.component(0);
}

}  // namespace
}  // namespace ppa::mesh
