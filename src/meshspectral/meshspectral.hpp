// ppa/meshspectral/meshspectral.hpp — umbrella header for the mesh-spectral
// archetype: distributed grids (2-D/3-D) with ghost boundaries, persistent
// split-phase halo-exchange plans, multi-block domains (block sets with
// batched per-peer boundary rounds and sparse block allocation — the one
// decomposition the 2-D mesh apps run on), grid/reduction operations
// (including overlapped core/rim stencils), layout-aware field views and
// SIMD-friendly sweep kernels (field.hpp / kernels.hpp), row/column
// distributions with plan-based redistribution, replicated globals, and file
// I/O. See docs/archetypes.md for the archetype-to-header map and
// docs/substrate.md for the communication substrate underneath.
#pragma once

#include "meshspectral/blockplan.hpp"  // IWYU pragma: export
#include "meshspectral/blockset.hpp"   // IWYU pragma: export
#include "meshspectral/field.hpp"      // IWYU pragma: export
#include "meshspectral/global.hpp"     // IWYU pragma: export
#include "meshspectral/grid2d.hpp"     // IWYU pragma: export
#include "meshspectral/grid3d.hpp"     // IWYU pragma: export
#include "meshspectral/io.hpp"         // IWYU pragma: export
#include "meshspectral/kernels.hpp"    // IWYU pragma: export
#include "meshspectral/ops.hpp"        // IWYU pragma: export
#include "meshspectral/plan.hpp"       // IWYU pragma: export
#include "meshspectral/rowcol.hpp"     // IWYU pragma: export
