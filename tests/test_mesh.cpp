// Mesh layer: grid geometry, SoA field arrays, blocks, decomposition,
// halo exchange pack/unpack, and boundary conditions.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "rshc/mesh/block.hpp"
#include "rshc/mesh/boundary.hpp"
#include "rshc/mesh/decomposition.hpp"
#include "rshc/mesh/field_array.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/mesh/halo.hpp"

namespace {

using namespace rshc;
using namespace rshc::mesh;

TEST(Grid, GeometryBasics) {
  const Grid g = Grid::make_1d(10, 0.0, 2.0);
  EXPECT_EQ(g.ndim(), 1);
  EXPECT_EQ(g.extent(0), 10);
  EXPECT_EQ(g.extent(1), 1);
  EXPECT_DOUBLE_EQ(g.dx(0), 0.2);
  EXPECT_DOUBLE_EQ(g.cell_center(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(g.cell_center(0, 9), 1.9);
  EXPECT_EQ(g.num_cells(), 10);
}

TEST(Grid, TwoDimensional) {
  const Grid g = Grid::make_2d(8, 4, -1.0, 1.0, 0.0, 1.0);
  EXPECT_EQ(g.ndim(), 2);
  EXPECT_DOUBLE_EQ(g.dx(0), 0.25);
  EXPECT_DOUBLE_EQ(g.dx(1), 0.25);
  EXPECT_DOUBLE_EQ(g.min_dx(), 0.25);
  EXPECT_EQ(g.num_cells(), 32);
}

TEST(Grid, RejectsBadShapes) {
  EXPECT_THROW(Grid(0, {1, 1, 1}, {0, 0, 0}, {1, 1, 1}), Error);
  EXPECT_THROW(Grid(1, {0, 1, 1}, {0, 0, 0}, {1, 1, 1}), Error);
  EXPECT_THROW(Grid(1, {4, 1, 1}, {1, 0, 0}, {0, 1, 1}), Error);
}

TEST(FieldArray, SoALayoutIsContiguousPerVariable) {
  FieldArray f(3, 2, 4, 5);
  EXPECT_EQ(f.cells_per_var(), 40u);
  EXPECT_EQ(f.size(), 120u);
  f(1, 0, 0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(f.var(1)[0], 7.0);
  f(2, 1, 3, 4) = 9.0;
  EXPECT_DOUBLE_EQ(f.var(2)[f.cell_index(1, 3, 4)], 9.0);
  EXPECT_EQ(f.cell_index(1, 3, 4), (1u * 4 + 3) * 5 + 4);
}

TEST(FieldArray, FillSetsEverything) {
  FieldArray f(2, 1, 3, 3);
  f.fill(2.5);
  for (const double v : f.flat()) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(FieldArray, ZeroFilledUnlessNoFillAndPoisonedInCheckedBuilds) {
  const FieldArray zeroed(2, 1, 3, 3);
  for (const double v : zeroed.flat()) EXPECT_EQ(v, 0.0);
  const FieldArray unfilled(2, 1, 3, 3, FieldArray::NoFill{});
  EXPECT_EQ(unfilled.size(), zeroed.size());
#if RSHC_CHECKS_ENABLED
  // A read before the first write must surface as a NaN in the state
  // checks, so checked builds poison the storage.
  for (const double v : unfilled.flat()) EXPECT_TRUE(std::isnan(v));
#endif
}

TEST(FieldArray, PackUnpackBoxRoundTripsEveryCell) {
  FieldArray f(2, 4, 5, 6);
  for (int v = 0; v < 2; ++v) {
    for (int k = 0; k < 4; ++k) {
      for (int j = 0; j < 5; ++j) {
        for (int i = 0; i < 6; ++i) {
          f(v, k, j, i) = 1000.0 * v + 100.0 * k + 10.0 * j + i;
        }
      }
    }
  }
  // Interior sub-box: pack, clear the box, unpack, and require the exact
  // values back while cells outside the box stay untouched.
  const BoxSpec box{1, 2, 3, 2, 2, 2};
  std::vector<double> staged(2 * box.cells(), -1.0);
  f.pack_box(box, staged);
  // v-major, then (k, j, i): first element is (v=0, k=1, j=2, i=3).
  EXPECT_DOUBLE_EQ(staged[0], 100.0 + 20.0 + 3.0);
  EXPECT_DOUBLE_EQ(staged[1], 100.0 + 20.0 + 4.0);        // +i
  EXPECT_DOUBLE_EQ(staged[2], 100.0 + 30.0 + 3.0);        // +j
  EXPECT_DOUBLE_EQ(staged[4], 200.0 + 20.0 + 3.0);        // +k
  EXPECT_DOUBLE_EQ(staged[box.cells()], 1123.0);          // +v
  FieldArray g = f;
  for (int v = 0; v < 2; ++v) {
    for (int k = 1; k < 3; ++k) {
      for (int j = 2; j < 4; ++j) {
        for (int i = 3; i < 5; ++i) g(v, k, j, i) = -7.0;
      }
    }
  }
  g.unpack_box(box, staged);
  for (std::size_t n = 0; n < f.size(); ++n) {
    EXPECT_DOUBLE_EQ(g.flat()[n], f.flat()[n]) << "cell " << n;
  }
}

TEST(FieldArray, FullArrayBoxEqualsFlat) {
  FieldArray f(3, 2, 3, 4);
  std::iota(f.flat().begin(), f.flat().end(), 0.0);
  const BoxSpec all{0, 0, 0, f.nk(), f.nj(), f.ni()};
  std::vector<double> staged(f.size());
  f.pack_box(all, staged);
  for (std::size_t n = 0; n < f.size(); ++n) {
    EXPECT_DOUBLE_EQ(staged[n], f.flat()[n]);
  }
}

TEST(FieldArray, BoxBoundsAndSizeAreChecked) {
  FieldArray f(1, 2, 2, 2);
  std::vector<double> staged(8);
  EXPECT_THROW(f.pack_box(BoxSpec{0, 0, 1, 2, 2, 2}, staged), rshc::Error);
  EXPECT_THROW(f.pack_box(BoxSpec{0, 0, 0, 2, 2, 2}, std::span(staged).first(4)),
               rshc::Error);
  EXPECT_THROW(f.unpack_box(BoxSpec{-1, 0, 0, 1, 1, 1},
                            std::span<const double>(staged).first(1)),
               rshc::Error);
}

TEST(Block, GhostGeometry1d) {
  const Grid g = Grid::make_1d(16, 0.0, 1.0);
  Block b(g, BlockExtents{{0, 0, 0}, {16, 1, 1}}, 3, 5, 5);
  EXPECT_EQ(b.interior(0), 16);
  EXPECT_EQ(b.total(0), 22);
  EXPECT_EQ(b.ghost(0), 3);
  EXPECT_EQ(b.ghost(1), 0);  // inactive axis has no ghosts
  EXPECT_EQ(b.total(1), 1);
  EXPECT_EQ(b.begin(0), 3);
  EXPECT_EQ(b.end(0), 19);
  // First interior local cell maps to the first global center.
  EXPECT_DOUBLE_EQ(b.center(0, 3), g.cell_center(0, 0));
}

TEST(Block, SubBlockCentersUseGlobalCoordinates) {
  const Grid g = Grid::make_2d(8, 8, 0.0, 1.0, 0.0, 1.0);
  Block b(g, BlockExtents{{4, 2, 0}, {8, 6, 1}}, 2, 5, 5);
  EXPECT_EQ(b.interior(0), 4);
  EXPECT_DOUBLE_EQ(b.center(0, b.begin(0)), g.cell_center(0, 4));
  EXPECT_DOUBLE_EQ(b.center(1, b.begin(1)), g.cell_center(1, 2));
}

TEST(Decomposition, ExtentsPartitionTheGrid) {
  const Grid g = Grid::make_2d(10, 7, 0.0, 1.0, 0.0, 1.0);
  const Decomposition d(g, {3, 2, 1});
  EXPECT_EQ(d.num_blocks(), 6);
  long long covered = 0;
  for (int b = 0; b < d.num_blocks(); ++b) {
    covered += d.extents(b).num_cells();
  }
  EXPECT_EQ(covered, g.num_cells());
  // Remainder spread: 10 = 4 + 3 + 3 across 3 blocks.
  EXPECT_EQ(d.extents(0).width(0), 4);
  EXPECT_EQ(d.extents(1).width(0), 3);
}

TEST(Decomposition, BlockCoordsRoundTrip) {
  const Grid g = Grid::make_2d(8, 8, 0.0, 1.0, 0.0, 1.0);
  const Decomposition d(g, {2, 4, 1});
  for (int b = 0; b < d.num_blocks(); ++b) {
    EXPECT_EQ(d.block_id(d.block_coords(b)), b);
  }
}

TEST(Decomposition, NeighborsRespectPeriodicity) {
  const Grid g = Grid::make_1d(12, 0.0, 1.0);
  const Decomposition d(g, {3, 1, 1});
  EXPECT_EQ(d.neighbor(0, 0, 0, true).value(), 2);   // wraps
  EXPECT_FALSE(d.neighbor(0, 0, 0, false).has_value());
  EXPECT_EQ(d.neighbor(0, 0, 1, false).value(), 1);
  EXPECT_EQ(d.neighbor(2, 0, 1, true).value(), 0);
}

TEST(Decomposition, RejectsOversplit) {
  const Grid g = Grid::make_1d(4, 0.0, 1.0);
  EXPECT_THROW(Decomposition(g, {5, 1, 1}), Error);
}

// --- halo exchange ----------------------------------------------------------

Block make_block_1d(const Grid& g, long long lo, long long hi, int ng) {
  return Block(g, BlockExtents{{lo, 0, 0}, {hi, 1, 1}}, ng, 2, 2);
}

TEST(Halo, CopyBetweenSiblingBlocks1d) {
  const Grid g = Grid::make_1d(8, 0.0, 1.0);
  Block a = make_block_1d(g, 0, 4, 2);
  Block b = make_block_1d(g, 4, 8, 2);
  // Tag each interior cell with its global index (var 0) and 10x (var 1).
  for (Block* blk : {&a, &b}) {
    for (int i = blk->begin(0); i < blk->end(0); ++i) {
      const double gx = blk->extents().lo[0] + (i - blk->ghost(0));
      blk->prim()(0, 0, 0, i) = gx;
      blk->prim()(1, 0, 0, i) = 10.0 * gx;
    }
  }
  // b's low ghosts come from a's high interior cells (globals 2, 3).
  copy_halo(b, a, 0, 0);
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 1), 3.0);
  EXPECT_DOUBLE_EQ(b.prim()(1, 0, 0, 1), 30.0);
  // a's high ghosts come from b's low interior cells (globals 4, 5).
  copy_halo(a, b, 0, 1);
  EXPECT_DOUBLE_EQ(a.prim()(0, 0, 0, a.end(0)), 4.0);
  EXPECT_DOUBLE_EQ(a.prim()(0, 0, 0, a.end(0) + 1), 5.0);
}

TEST(Halo, PackUnpackMatchesDirectCopy) {
  const Grid g = Grid::make_2d(8, 6, 0.0, 1.0, 0.0, 1.0);
  auto make = [&](long long xlo, long long xhi) {
    return Block(g, BlockExtents{{xlo, 0, 0}, {xhi, 6, 1}}, 2, 3, 3);
  };
  Block a = make(0, 4);
  Block b1 = make(4, 8);
  Block b2 = make(4, 8);
  int counter = 0;
  for (int v = 0; v < 3; ++v) {
    for (int j = a.begin(1); j < a.end(1); ++j) {
      for (int i = a.begin(0); i < a.end(0); ++i) {
        a.prim()(v, 0, j, i) = counter++;
      }
    }
  }
  // Path 1: direct shared-memory copy.
  copy_halo(b1, a, 0, 0);
  // Path 2: pack -> buffer -> unpack (the distributed path).
  std::vector<double> buf(halo_buffer_size(a, 0));
  pack_face(a, 0, 1, buf);  // a's high face feeds b's low ghosts
  unpack_ghost(b2, 0, 0, buf);
  for (int v = 0; v < 3; ++v) {
    for (int j = b1.begin(1); j < b1.end(1); ++j) {
      for (int gg = 0; gg < 2; ++gg) {
        EXPECT_DOUBLE_EQ(b1.prim()(v, 0, j, gg), b2.prim()(v, 0, j, gg))
            << "v=" << v << " j=" << j << " g=" << gg;
      }
    }
  }
}

TEST(Halo, PeriodicWrapOnSingleBlock) {
  const Grid g = Grid::make_1d(6, 0.0, 1.0);
  Block b = make_block_1d(g, 0, 6, 2);
  for (int i = b.begin(0); i < b.end(0); ++i) {
    b.prim()(0, 0, 0, i) = static_cast<double>(i - b.ghost(0));
  }
  // The solver's single-block periodic fill: the block is its own
  // neighbour across both faces.
  copy_halo(b, b, 0, 0);
  copy_halo(b, b, 0, 1);
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 0), 4.0);  // wraps to cells 4, 5
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 1), 5.0);
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, b.end(0)), 0.0);
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, b.end(0) + 1), 1.0);
}

TEST(Halo, SizeMismatchThrows) {
  const Grid g = Grid::make_1d(8, 0.0, 1.0);
  Block a = make_block_1d(g, 0, 4, 2);
  std::vector<double> wrong(3);
  EXPECT_THROW(pack_face(a, 0, 0, wrong), Error);
  EXPECT_THROW(unpack_ghost(a, 0, 0, wrong), Error);
}

// --- boundary conditions ----------------------------------------------------

TEST(Boundary, OutflowCopiesNearestInterior) {
  const Grid g = Grid::make_1d(6, 0.0, 1.0);
  Block b = make_block_1d(g, 0, 6, 2);
  for (int i = b.begin(0); i < b.end(0); ++i) {
    b.prim()(0, 0, 0, i) = static_cast<double>(i);
  }
  apply_physical_boundary(b, 0, 0, BcType::kOutflow, {});
  apply_physical_boundary(b, 0, 1, BcType::kOutflow, {});
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 0), b.prim()(0, 0, 0, b.begin(0)));
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 1), b.prim()(0, 0, 0, b.begin(0)));
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, b.end(0) + 1),
                   b.prim()(0, 0, 0, b.end(0) - 1));
}

TEST(Boundary, ReflectMirrorsAndNegatesSelectedVars) {
  const Grid g = Grid::make_1d(6, 0.0, 1.0);
  Block b = make_block_1d(g, 0, 6, 2);
  for (int i = b.begin(0); i < b.end(0); ++i) {
    b.prim()(0, 0, 0, i) = static_cast<double>(i);       // scalar-like
    b.prim()(1, 0, 0, i) = static_cast<double>(i) + 0.5;  // velocity-like
  }
  const int negate[] = {1};
  apply_physical_boundary(b, 0, 0, BcType::kReflect, negate);
  // Ghost layer g mirrors interior layer g (0-based from the face).
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 1), b.prim()(0, 0, 0, 2));
  EXPECT_DOUBLE_EQ(b.prim()(0, 0, 0, 0), b.prim()(0, 0, 0, 3));
  EXPECT_DOUBLE_EQ(b.prim()(1, 0, 0, 1), -b.prim()(1, 0, 0, 2));
  EXPECT_DOUBLE_EQ(b.prim()(1, 0, 0, 0), -b.prim()(1, 0, 0, 3));
}

TEST(Boundary, PeriodicViaPhysicalPathIsRejected) {
  const Grid g = Grid::make_1d(6, 0.0, 1.0);
  Block b = make_block_1d(g, 0, 6, 2);
  EXPECT_THROW(apply_physical_boundary(b, 0, 0, BcType::kPeriodic, {}),
               Error);
}

TEST(Boundary, NamesRoundTrip) {
  for (const BcType t : {BcType::kPeriodic, BcType::kOutflow,
                         BcType::kReflect}) {
    EXPECT_EQ(parse_bc(bc_name(t)), t);
  }
  EXPECT_THROW((void)parse_bc("absorbing"), Error);
  const BoundarySpec spec = BoundarySpec::all(BcType::kOutflow);
  EXPECT_FALSE(spec.periodic(0));
  EXPECT_FALSE(spec.periodic(2));
}

}  // namespace
