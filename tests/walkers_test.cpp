/**
 * @file
 * Direct tests of the runtime walk kernels against the tiled-tree
 * reference traversal: every (layout, tile size, walk mode,
 * interleave width) combination, plus robustness of the sparse
 * layout's safety tail against NaN inputs.
 */
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "lir/layout_builder.h"
#include "runtime/plan.h"
#include "runtime/walkers.h"
#include "test_utils.h"

namespace treebeard::runtime {
namespace {

struct WalkerFixtureState
{
    model::Forest forest{1};
    std::unique_ptr<hir::HirModule> module;
    hir::Schedule schedule;
    lir::ForestBuffers sparse;
    lir::ForestBuffers array;
    std::vector<float> rows;
    int64_t numRows = 0;
};

WalkerFixtureState
makeState(int32_t tile_size, bool unroll, uint64_t seed)
{
    WalkerFixtureState state;
    testing::RandomForestSpec spec;
    spec.numTrees = 6;
    spec.maxDepth = 7;
    spec.seed = seed;
    state.forest = testing::makeRandomForest(spec);

    hir::Schedule schedule;
    schedule.tileSize = tile_size;
    schedule.padAndUnrollWalks = unroll;
    state.module =
        std::make_unique<hir::HirModule>(state.forest, schedule);
    state.module->runAllHirPasses();
    state.schedule = schedule;
    state.sparse = lir::buildSparseLayout(*state.module);
    state.array = lir::buildArrayLayout(*state.module);

    state.numRows = 64;
    state.rows = testing::makeRandomRows(spec.numFeatures,
                                         state.numRows, seed + 1);
    return state;
}

/** The walkers' view of @p fb. */
ForestView
viewOf(const WalkerFixtureState &state, const lir::ForestBuffers &fb)
{
    std::vector<int32_t> unused_wide;
    return makeForestView(fb, state.schedule, &unused_wide);
}

/** Reference per-(tree, row) leaf values via the tiled trees. */
float
referenceTreeValue(const WalkerFixtureState &state, int64_t pos,
                   const float *row)
{
    int64_t tree_id =
        state.module->treeOrder()[static_cast<size_t>(pos)];
    return state.module->tiledTree(tree_id).predict(row);
}

template <int NT>
void
checkAllWalkers(const WalkerFixtureState &state)
{
    const lir::ForestBuffers &sparse = state.sparse;
    const lir::ForestBuffers &array = state.array;
    ForestView sparse_view = viewOf(state, sparse);
    ForestView array_view = viewOf(state, array);
    int32_t nf = state.forest.numFeatures();

    for (int64_t pos = 0; pos < sparse.numTrees; ++pos) {
        const lir::TreeWalkInfo &info =
            sparse.walkInfo[static_cast<size_t>(pos)];
        int64_t sparse_root =
            sparse.treeFirstTile[static_cast<size_t>(pos)];
        int64_t array_base =
            array.treeFirstTile[static_cast<size_t>(pos)];

        for (int64_t r = 0; r < state.numRows; ++r) {
            const float *row = state.rows.data() + r * nf;
            float expected = referenceTreeValue(state, pos, row);

            EXPECT_EQ((walkSparse<NT, true>(sparse_view, sparse_root,
                                     row)),
                      expected);
            EXPECT_EQ((walkArray<NT, true>(array_view, array_base,
                                    row)),
                      expected);
            if (info.unrolled) {
                EXPECT_EQ((walkSparseUnrolled<NT, true>(sparse_view, sparse_root, row,
                                                 info.unrolledDepth)),
                          expected);
                EXPECT_EQ((walkArrayUnrolled<NT, true>(array_view, array_base, row,
                                                info.unrolledDepth)),
                          expected);
            } else {
                EXPECT_EQ((walkSparsePeeled<NT, true>(sparse_view, sparse_root, row,
                                               info.peelDepth)),
                          expected);
                EXPECT_EQ((walkArrayPeeled<NT, true>(array_view, array_base, row,
                                              info.peelDepth)),
                          expected);
            }
        }

        // Interleaved variants, 4 rows at a time.
        constexpr int K = 4;
        for (int64_t r = 0; r + K <= state.numRows; r += K) {
            const float *row_ptrs[K];
            int64_t sparse_roots[K], array_bases[K];
            float expected[K];
            for (int k = 0; k < K; ++k) {
                row_ptrs[k] = state.rows.data() + (r + k) * nf;
                sparse_roots[k] = sparse_root;
                array_bases[k] = array_base;
                expected[k] = referenceTreeValue(state, pos,
                                                 row_ptrs[k]);
            }
            float out[K];
            if (info.unrolled) {
                walkSparseUnrolledInterleaved<NT, true, K>(
                    sparse_view, sparse_roots, row_ptrs,
                    info.unrolledDepth, out);
                for (int k = 0; k < K; ++k)
                    EXPECT_EQ(out[k], expected[k]);
                walkArrayUnrolledInterleaved<NT, true, K>(
                    array_view, array_bases, row_ptrs,
                    info.unrolledDepth, out);
                for (int k = 0; k < K; ++k)
                    EXPECT_EQ(out[k], expected[k]);
            } else {
                walkSparseGenericInterleaved<NT, true, K>(
                    sparse_view, sparse_roots, row_ptrs,
                    info.peelDepth, out);
                for (int k = 0; k < K; ++k)
                    EXPECT_EQ(out[k], expected[k]);
                walkArrayGenericInterleaved<NT, true, K>(
                    array_view, array_bases, row_ptrs,
                    info.peelDepth, out);
                for (int k = 0; k < K; ++k)
                    EXPECT_EQ(out[k], expected[k]);
            }
        }
    }
}

TEST(Walkers, Tile1Generic)
{
    checkAllWalkers<1>(makeState(1, false, 501));
}

TEST(Walkers, Tile2Unrolled)
{
    checkAllWalkers<2>(makeState(2, true, 502));
}

TEST(Walkers, Tile4Generic)
{
    checkAllWalkers<4>(makeState(4, false, 503));
}

TEST(Walkers, Tile4Unrolled)
{
    checkAllWalkers<4>(makeState(4, true, 504));
}

TEST(Walkers, Tile8Generic)
{
    checkAllWalkers<8>(makeState(8, false, 505));
}

TEST(Walkers, Tile8Unrolled)
{
    checkAllWalkers<8>(makeState(8, true, 506));
}

TEST(Walkers, NanInputsStayMemorySafe)
{
    // NaN features break the dummy tiles' all-true routing; the
    // sparse layout's safety tail must keep such walks in bounds (the
    // result is unspecified, the execution must not fault).
    WalkerFixtureState state = makeState(8, true, 507);
    std::vector<float> nan_row(
        static_cast<size_t>(state.forest.numFeatures()),
        std::numeric_limits<float>::quiet_NaN());
    ForestView view = viewOf(state, state.sparse);
    for (int64_t pos = 0; pos < state.sparse.numTrees; ++pos) {
        int64_t root =
            state.sparse.treeFirstTile[static_cast<size_t>(pos)];
        float value = walkSparse<8, true>(view, root,
                                    nan_row.data());
        EXPECT_TRUE(std::isfinite(value) || std::isnan(value));
    }
}

TEST(Walkers, EvalTileAgreesWithDynamicPath)
{
    WalkerFixtureState state = makeState(8, false, 508);
    ForestView view = viewOf(state, state.sparse);
    for (int64_t tile = 0; tile < state.sparse.numTiles(); ++tile) {
        for (int64_t r = 0; r < 8; ++r) {
            const float *row = state.rows.data() +
                               r * state.forest.numFeatures();
            EXPECT_EQ((evalTile<8, false>(view, tile, row)),
                      evalTileDynamic(state.sparse, tile, row, false))
                << "tile " << tile << " row " << r;
        }
    }
}

} // namespace
} // namespace treebeard::runtime
