/**
 * @file
 * Cross-backend bit-exactness: the unified treebeard::compile entry
 * point must produce identical predictions from the kernel runtime and
 * the source-JIT backend across memory layouts, tile sizes, binary and
 * multiclass objectives, and NaN-bearing inputs. Leaf values are
 * quantized so accumulation is order-independent and the comparison
 * can be exact (see test_utils.h).
 */
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

using testing::expectPredictionsExact;
using testing::makeRandomForest;
using testing::makeRandomRows;
using testing::quantizeLeafValues;

/** A binary or multiclass quantized test forest. */
model::Forest
makeForest(bool multiclass, uint64_t seed)
{
    testing::RandomForestSpec spec;
    spec.numTrees = multiclass ? 12 : 10;
    spec.numFeatures = 10;
    spec.maxDepth = 5;
    spec.seed = seed;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    if (multiclass) {
        forest.setObjective(model::Objective::kMulticlassSoftmax);
        forest.setNumClasses(3);
        forest.setBaseScore(0.0f);
    }
    return forest;
}

/** Rows with NaNs sprinkled in to exercise default-left routing. */
std::vector<float>
makeRowsWithNans(int32_t num_features, int64_t num_rows, uint64_t seed)
{
    std::vector<float> rows =
        makeRandomRows(num_features, num_rows, seed);
    for (size_t i = 0; i < rows.size(); i += 7)
        rows[i] = std::numeric_limits<float>::quiet_NaN();
    return rows;
}

/** Predictions from one backend through the unified API. */
std::vector<float>
predictWith(Backend backend, const model::Forest &forest,
            const hir::Schedule &schedule,
            const std::vector<float> &rows)
{
    CompilerOptions options;
    options.backend = backend;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);
    EXPECT_EQ(session.backend(), backend);
    EXPECT_EQ(session.numFeatures(), forest.numFeatures());
    EXPECT_EQ(session.numClasses(), forest.numClasses());
    int64_t num_rows = static_cast<int64_t>(rows.size()) /
                       forest.numFeatures();
    std::vector<float> predictions(
        static_cast<size_t>(num_rows) * forest.numClasses());
    session.predict(rows.data(), num_rows, predictions.data());
    return predictions;
}

/**
 * gtest prints a parameter without a printer as its raw bytes, and
 * ctest names each case after that print, so every byte of the struct
 * is part of a case name. `nameBytes` fills what would otherwise be
 * uninitialized padding after `multiclass`: padding let a rebuild
 * rename cases, so the bytes are explicit and pinned to the values each
 * case's name was recorded with. The test never reads them.
 */
struct ParityCase
{
    hir::MemoryLayout layout;
    int32_t tileSize;
    bool multiclass;
    std::array<uint8_t, 3> nameBytes;
    hir::PackedPrecision precision;
};
static_assert(sizeof(ParityCase) == 16, "case names print 16 bytes");

ParityCase
parityCase(hir::MemoryLayout layout, int32_t tileSize, bool multiclass,
           hir::PackedPrecision precision = hir::PackedPrecision::kF32,
           std::array<uint8_t, 3> nameBytes = {})
{
    return ParityCase{layout, tileSize, multiclass, nameBytes, precision};
}

class BackendParity : public ::testing::TestWithParam<ParityCase>
{};

TEST_P(BackendParity, KernelAndSourceJitAreBitExact)
{
    const ParityCase &c = GetParam();
    model::Forest forest = makeForest(c.multiclass, 4000 + c.tileSize);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 64, 4100);

    hir::Schedule schedule;
    schedule.layout = c.layout;
    schedule.tileSize = c.tileSize;
    schedule.packedPrecision = c.precision;

    std::vector<float> kernel =
        predictWith(Backend::kKernel, forest, schedule, rows);
    std::vector<float> jit =
        predictWith(Backend::kSourceJit, forest, schedule, rows);
    expectPredictionsExact(kernel, jit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendParity,
    ::testing::Values(
        parityCase(hir::MemoryLayout::kSparse, 1, false),
        parityCase(hir::MemoryLayout::kSparse, 4, false),
        parityCase(hir::MemoryLayout::kSparse, 8, false,
                   hir::PackedPrecision::kF32, {0x07, 0xE1, 0xE0}),
        parityCase(hir::MemoryLayout::kArray, 1, false),
        parityCase(hir::MemoryLayout::kArray, 4, false),
        parityCase(hir::MemoryLayout::kArray, 8, false,
                   hir::PackedPrecision::kF32, {0xD7, 0xAD, 0x20}),
        parityCase(hir::MemoryLayout::kPacked, 1, false),
        parityCase(hir::MemoryLayout::kPacked, 4, false),
        parityCase(hir::MemoryLayout::kPacked, 8, false),
        parityCase(hir::MemoryLayout::kSparse, 1, true),
        parityCase(hir::MemoryLayout::kSparse, 4, true),
        parityCase(hir::MemoryLayout::kSparse, 8, true),
        parityCase(hir::MemoryLayout::kArray, 4, true,
                   hir::PackedPrecision::kF32, {0x69, 0x73, 0x74}),
        parityCase(hir::MemoryLayout::kArray, 8, true),
        parityCase(hir::MemoryLayout::kPacked, 4, true),
        parityCase(hir::MemoryLayout::kPacked, 8, true),
        // Int16-quantized packed records: the emitted source inlines
        // the same quantizer and integer compares as the kernels, so
        // parity is exact even where rounding flips a route.
        parityCase(hir::MemoryLayout::kPacked, 1, false,
                   hir::PackedPrecision::kI16, {0x00, 0x04, 0x00}),
        parityCase(hir::MemoryLayout::kPacked, 4, false,
                   hir::PackedPrecision::kI16, {0xFF, 0x70, 0x00}),
        parityCase(hir::MemoryLayout::kPacked, 8, false,
                   hir::PackedPrecision::kI16),
        parityCase(hir::MemoryLayout::kPacked, 4, true,
                   hir::PackedPrecision::kI16),
        parityCase(hir::MemoryLayout::kPacked, 8, true,
                   hir::PackedPrecision::kI16, {0x00, 0x04, 0x00})));

/**
 * The schedule the repository benchmark runs (tile 8, hybrid tiling,
 * sparse layout, unrolled and peeled walks, interleave 8, one tree at
 * a time) promises NaN-free inputs, which lets the backends drop the
 * missing-value compare. These cases hold it, and three neighbours of
 * it, to bit-exact parity on scaled-down Table I models with the
 * models' own NaN-free feature distributions and unquantized leaves.
 */
enum class OptimizedVariant
{
    kTreeAtATime,
    kRowAtATimeInterleave4,
    kRowParallelSparse,
    kRowParallelPacked,
};

struct OptimizedCase
{
    const char *spec;
    OptimizedVariant variant;
};

hir::Schedule
optimizedSchedule(OptimizedVariant variant)
{
    hir::Schedule schedule;
    schedule.loopOrder = hir::LoopOrder::kOneTreeAtATime;
    schedule.tileSize = 8;
    schedule.tiling = hir::TilingAlgorithm::kHybrid;
    schedule.layout = hir::MemoryLayout::kSparse;
    schedule.padAndUnrollWalks = true;
    schedule.peelWalks = true;
    schedule.interleaveFactor = 8;
    schedule.assumeNoMissingValues = true;
    switch (variant) {
      case OptimizedVariant::kTreeAtATime:
        break;
      case OptimizedVariant::kRowAtATimeInterleave4:
        schedule.loopOrder = hir::LoopOrder::kOneRowAtATime;
        schedule.interleaveFactor = 4;
        break;
      case OptimizedVariant::kRowParallelSparse:
      case OptimizedVariant::kRowParallelPacked:
        schedule.traversal = hir::TraversalKind::kRowParallel;
        schedule.tileSize = 1;
        if (variant == OptimizedVariant::kRowParallelPacked)
            schedule.layout = hir::MemoryLayout::kPacked;
        break;
    }
    return schedule;
}

class BackendParityOptimized
    : public ::testing::TestWithParam<OptimizedCase>
{};

TEST_P(BackendParityOptimized, KernelAndSourceJitAreBitExact)
{
    const OptimizedCase &c = GetParam();
    data::SyntheticModelSpec spec = data::scaledDown(
        data::benchmarkSpecByName(c.spec), /*max_trees=*/24,
        /*training_rows=*/400);
    model::Forest forest = data::synthesizeForest(spec);
    // 141 rows: four 32-row lane-group blocks, one 8-row group and a
    // 5-row scalar tail on the row-parallel walkers; 17 interleaved
    // blocks of 8 and a tail on the node-parallel ones.
    int64_t num_rows = 141;
    data::Dataset input =
        data::generateFeatures(spec, num_rows, /*seed_offset=*/4800);
    std::vector<float> rows(input.rows(),
                            input.rows() + num_rows * spec.numFeatures);

    hir::Schedule schedule = optimizedSchedule(c.variant);
    std::vector<float> kernel =
        predictWith(Backend::kKernel, forest, schedule, rows);
    std::vector<float> jit =
        predictWith(Backend::kSourceJit, forest, schedule, rows);
    expectPredictionsExact(kernel, jit);
}

std::vector<OptimizedCase>
optimizedCases()
{
    std::vector<OptimizedCase> cases;
    for (const char *spec : {"abalone", "airline", "airline-ohe",
                             "covtype", "epsilon", "letter", "higgs",
                             "year"}) {
        for (OptimizedVariant variant :
             {OptimizedVariant::kTreeAtATime,
              OptimizedVariant::kRowAtATimeInterleave4,
              OptimizedVariant::kRowParallelSparse,
              OptimizedVariant::kRowParallelPacked})
            cases.push_back({spec, variant});
    }
    return cases;
}

std::string
optimizedCaseName(const ::testing::TestParamInfo<OptimizedCase> &info)
{
    static const char *const kVariantNames[] = {
        "tree_at_a_time_il8", "row_at_a_time_il4",
        "row_parallel_sparse_t1", "row_parallel_packed_t1"};
    std::string name = info.param.spec;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_" +
           kVariantNames[static_cast<int>(info.param.variant)];
}

INSTANTIATE_TEST_SUITE_P(TableI, BackendParityOptimized,
                         ::testing::ValuesIn(optimizedCases()),
                         optimizedCaseName);

/**
 * A NaN row breaks the NaN-free promise, so its route is unspecified,
 * but both backends instantiate the same walkers with the same
 * missing-value choice (runtime::handleMissingValues), so it routes
 * alike on both, node-parallel and row-parallel. Tile sizes the kernel
 * runtime has no specialization for (3, 5) run its generic dynamic
 * walk; it agrees because a NaN takes the left child everywhere, so
 * every walk follows a real path (runtime::goesLeft).
 */
TEST(UnifiedSession, NanRowsRouteAlikeUnderNoNanPromise)
{
    model::Forest forest = makeForest(false, 4750);
    // Default directions would force missing-value handling on.
    ASSERT_FALSE(
        compile(forest, hir::Schedule{}).plan().buffers().hasDefaultLeft);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 77, 4751);
    struct PromiseCase
    {
        hir::MemoryLayout layout;
        int32_t tileSize;
        hir::TraversalKind traversal;
    };
    const PromiseCase cases[] = {
        {hir::MemoryLayout::kSparse, 8, hir::TraversalKind::kNodeParallel},
        {hir::MemoryLayout::kArray, 4, hir::TraversalKind::kNodeParallel},
        {hir::MemoryLayout::kPacked, 8, hir::TraversalKind::kNodeParallel},
        {hir::MemoryLayout::kSparse, 1, hir::TraversalKind::kRowParallel},
        {hir::MemoryLayout::kPacked, 1, hir::TraversalKind::kRowParallel},
        {hir::MemoryLayout::kSparse, 3, hir::TraversalKind::kNodeParallel},
        {hir::MemoryLayout::kArray, 5, hir::TraversalKind::kNodeParallel},
    };
    for (const PromiseCase &c : cases) {
        SCOPED_TRACE(std::string(hir::memoryLayoutName(c.layout)) +
                     " tile " + std::to_string(c.tileSize));
        hir::Schedule schedule;
        schedule.layout = c.layout;
        schedule.tileSize = c.tileSize;
        schedule.traversal = c.traversal;
        schedule.assumeNoMissingValues = true;
        std::vector<float> kernel =
            predictWith(Backend::kKernel, forest, schedule, rows);
        std::vector<float> jit =
            predictWith(Backend::kSourceJit, forest, schedule, rows);
        expectPredictionsExact(kernel, jit);
    }
}

TEST(UnifiedSession, PredictInstrumentedThrowsOnSourceJit)
{
    model::Forest forest = makeForest(false, 4200);
    hir::Schedule schedule;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);
    EXPECT_FALSE(session.supportsInstrumentation());

    std::vector<float> rows = makeRandomRows(10, 4, 4201);
    std::vector<float> predictions(4);
    runtime::WalkCounters counters;
    try {
        session.predictInstrumented(rows.data(), 4, predictions.data(),
                                    &counters);
        FAIL() << "expected Error from predictInstrumented";
    } catch (const Error &error) {
        // Clients branch on the stable code, not the message text.
        EXPECT_EQ(error.code(), kErrInstrumentationUnsupported);
    }

    // The kernel backend still supports instrumentation.
    options.backend = Backend::kKernel;
    Session kernel = compile(forest, schedule, options);
    EXPECT_TRUE(kernel.supportsInstrumentation());
    EXPECT_NO_THROW(kernel.predictInstrumented(
        rows.data(), 4, predictions.data(), &counters));
}

TEST(UnifiedSession, ArtifactsRecordBackendAndSource)
{
    model::Forest forest = makeForest(false, 4300);
    hir::Schedule schedule;
    schedule.tileSize = 8;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);

    const CompilationArtifacts &artifacts = session.artifacts();
    EXPECT_EQ(artifacts.backend, Backend::kSourceJit);
    EXPECT_FALSE(artifacts.lirSummary.empty());
    // The emitted source carries the AVX2 tile-evaluation sequence for
    // tile size 8 (guarded on __AVX2__ with a scalar fallback).
    EXPECT_NE(artifacts.generatedSource.find("_mm256_i32gather_ps"),
              std::string::npos);
    EXPECT_NE(artifacts.generatedSource.find("_mm256_movemask_ps"),
              std::string::npos);
    EXPECT_NE(artifacts.generatedSource.find("__AVX2__"),
              std::string::npos);

    // Kernel compilations carry no generated source.
    options.backend = Backend::kKernel;
    Session kernel = compile(forest, schedule, options);
    EXPECT_EQ(kernel.artifacts().backend, Backend::kKernel);
    EXPECT_TRUE(kernel.artifacts().generatedSource.empty());
}

TEST(UnifiedSession, QuantizedArtifactsCarryInt16Kernels)
{
    model::Forest forest = makeForest(false, 4350);
    hir::Schedule schedule;
    schedule.tileSize = 8;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);

    const std::string &source =
        session.artifacts().generatedSource;
    // The integer compare ladder and the inlined row quantizer.
    EXPECT_NE(source.find("_mm256_cmpgt_epi32"), std::string::npos);
    EXPECT_NE(source.find("_mm256_i32gather_epi32"),
              std::string::npos);
    EXPECT_NE(source.find("runtime::quantizeRows("), std::string::npos);
    EXPECT_NE(source.find("std::lrintf"), std::string::npos);
}

TEST(UnifiedSession, SourceJitHonorsNumThreads)
{
    model::Forest forest = makeForest(true, 4400);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 100, 4401);

    hir::Schedule serial;
    serial.tileSize = 4;
    hir::Schedule threaded = serial;
    threaded.numThreads = 4;

    std::vector<float> expected =
        predictWith(Backend::kSourceJit, forest, serial, rows);
    std::vector<float> actual =
        predictWith(Backend::kSourceJit, forest, threaded, rows);
    expectPredictionsExact(expected, actual);
}

/**
 * The threaded source-JIT path runs the row loop emitted into the
 * generated TU (treebeard_predict_worker): across layouts, both
 * packed precisions and explicit row-chunk sizes, it must stay
 * bit-exact with the serial JIT and with the threaded kernel backend.
 */
TEST(UnifiedSession, EmittedParallelRowLoopIsBitExactEverywhere)
{
    model::Forest forest = makeForest(false, 4600);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 103, 4601);

    struct LoopCase
    {
        hir::MemoryLayout layout;
        hir::PackedPrecision precision;
        int32_t rowChunkRows;
    };
    const LoopCase cases[] = {
        {hir::MemoryLayout::kArray, hir::PackedPrecision::kF32, 0},
        {hir::MemoryLayout::kSparse, hir::PackedPrecision::kF32, 7},
        {hir::MemoryLayout::kPacked, hir::PackedPrecision::kF32, 0},
        {hir::MemoryLayout::kPacked, hir::PackedPrecision::kI16, 0},
        {hir::MemoryLayout::kPacked, hir::PackedPrecision::kI16, 16},
    };
    for (const LoopCase &c : cases) {
        hir::Schedule serial;
        serial.tileSize = 4;
        serial.layout = c.layout;
        serial.packedPrecision = c.precision;
        hir::Schedule threaded = serial;
        threaded.numThreads = 4;
        threaded.rowChunkRows = c.rowChunkRows;

        std::vector<float> expected =
            predictWith(Backend::kSourceJit, forest, serial, rows);
        std::vector<float> jit =
            predictWith(Backend::kSourceJit, forest, threaded, rows);
        expectPredictionsExact(expected, jit);
        std::vector<float> kernel =
            predictWith(Backend::kKernel, forest, threaded, rows);
        expectPredictionsExact(expected, kernel);
    }
}

/** The worker entry really is in the generated TU. */
TEST(UnifiedSession, GeneratedSourceCarriesWorkerEntry)
{
    model::Forest forest = makeForest(false, 4700);
    hir::Schedule schedule;
    schedule.numThreads = 4;
    schedule.rowChunkRows = 32;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);
    const std::string &source = session.artifacts().generatedSource;
    EXPECT_NE(source.find("treebeard_predict_worker"),
              std::string::npos);
    // The explicit chunk size is baked into the source, not passed at
    // call time.
    EXPECT_NE(source.find("32"), std::string::npos);
}

TEST(UnifiedSession, CompileForestAliasHonorsBackend)
{
    model::Forest forest = makeForest(false, 4500);
    hir::Schedule schedule;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);
    EXPECT_EQ(session.backend(), Backend::kSourceJit);

    std::vector<float> rows = makeRandomRows(10, 8, 4501);
    std::vector<float> viaAlias(8), viaCompile(8);
    session.predict(rows.data(), 8, viaAlias.data());
    compile(forest, schedule, options)
        .predict(rows.data(), 8, viaCompile.data());
    expectPredictionsExact(viaCompile, viaAlias);
}

TEST(UnifiedSession, BackendNames)
{
    EXPECT_STREQ(backendName(Backend::kKernel), "kernel");
    EXPECT_STREQ(backendName(Backend::kSourceJit), "jit");
}

} // namespace
} // namespace treebeard
