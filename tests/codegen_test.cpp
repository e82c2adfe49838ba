/**
 * @file
 * Tests for the source backend: the system JIT (compile + dlopen) and
 * the LIR -> C++ emitter, whose compiled output must match both the
 * reference walk and the kernel runtime across schedules.
 */
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "codegen/cpp_emitter.h"
#include "common/json.h"
#include "lir/layout_builder.h"
#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard::codegen {
namespace {

using testing::expectPredictionsExact;
using testing::makeRandomForest;
using testing::makeRandomRows;
using testing::quantizeLeafValues;
using testing::referencePredictions;

TEST(SystemJit, CompilesAndResolvesSymbols)
{
    ASSERT_TRUE(systemCompilerAvailable());
    std::string source = R"(
        extern "C" int add_ints(int a, int b) { return a + b; }
        extern "C" double the_answer() { return 42.0; }
    )";
    JitOptions options;
    options.optLevel = "-O0";
    JitModule module(source, options);
    auto add = module.function<int (*)(int, int)>("add_ints");
    EXPECT_EQ(add(20, 22), 42);
    auto answer = module.function<double (*)()>("the_answer");
    EXPECT_DOUBLE_EQ(answer(), 42.0);
    EXPECT_GT(module.compileSeconds(), 0.0);
    EXPECT_THROW(module.symbol("missing_symbol"), Error);
}

TEST(SystemJit, ReportsCompileErrorsWithDiagnostics)
{
    JitOptions options;
    options.optLevel = "-O0";
    try {
        JitModule module("this is not C++", options);
        FAIL() << "expected compilation failure";
    } catch (const Error &error) {
        EXPECT_NE(std::string(error.what()).find("error"),
                  std::string::npos);
    }
}

TEST(SystemJit, MoveSemantics)
{
    JitOptions options;
    options.optLevel = "-O0";
    JitModule a("extern \"C\" int f() { return 7; }", options);
    JitModule b = std::move(a);
    EXPECT_EQ(b.function<int (*)()>("f")(), 7);
}

TEST(SystemJit, DefaultsToO3)
{
    EXPECT_EQ(JitOptions{}.optLevel, "-O3");
}

TEST(SystemJit, MemoizesIdenticalCompilations)
{
    JitOptions options;
    options.optLevel = "-O1";
    std::string source = "extern \"C\" int g() { return 9; }";

    JitCacheStats before = jitCacheStats();
    JitModule a(source, options);
    EXPECT_GT(a.compileSeconds(), 0.0);

    // Same key: shared library, no compiler round-trip.
    JitModule b(source, options);
    EXPECT_EQ(b.compileSeconds(), 0.0);
    EXPECT_EQ(b.function<int (*)()>("g")(), 9);
    EXPECT_EQ(a.libraryPath(), b.libraryPath());

    JitCacheStats after = jitCacheStats();
    EXPECT_EQ(after.lookups, before.lookups + 2);
    EXPECT_EQ(after.hits, before.hits + 1);

    // Different flags are a different key.
    JitOptions other = options;
    other.optLevel = "-O0";
    JitModule c(source, other);
    EXPECT_GT(c.compileSeconds(), 0.0);
    EXPECT_NE(c.libraryPath(), a.libraryPath());

    // keepArtifacts compiles privately, bypassing the cache.
    JitOptions keep = options;
    keep.keepArtifacts = true;
    JitModule d(source, keep);
    EXPECT_GT(d.compileSeconds(), 0.0);
    EXPECT_NE(d.libraryPath(), a.libraryPath());
    EXPECT_EQ(jitCacheStats().lookups, after.lookups + 1);
}

/** A fresh unique disk-cache directory under the test temp dir. */
std::string
makeCacheDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(SystemJit, DiskCacheServesFreshProcesses)
{
    JitOptions options;
    options.optLevel = "-O0";
    options.cacheDir = makeCacheDir("jit_disk_cache");
    std::string source =
        "extern \"C\" int disk_cached() { return 31; }";

    JitCacheStats before = jitCacheStats();
    JitModule first(source, options);
    EXPECT_GT(first.compileSeconds(), 0.0);
    EXPECT_EQ(first.function<int (*)()>("disk_cached")(), 31);

    JitCacheStats stored = jitCacheStats();
    EXPECT_EQ(stored.diskLookups, before.diskLookups + 1);
    EXPECT_EQ(stored.diskHits, before.diskHits);
    EXPECT_EQ(stored.diskStores, before.diskStores + 1);

    // Dropping the in-memory memoization makes the next lookup behave
    // exactly like a fresh process: it must be served by dlopen'ing
    // the cached .so, never by the system compiler.
    clearJitMemoryCacheForTesting();
    JitModule second(source, options);
    EXPECT_EQ(second.compileSeconds(), 0.0);
    EXPECT_EQ(second.function<int (*)()>("disk_cached")(), 31);

    JitCacheStats after = jitCacheStats();
    EXPECT_EQ(after.diskLookups, stored.diskLookups + 1);
    EXPECT_EQ(after.diskHits, stored.diskHits + 1);
    EXPECT_EQ(after.diskStores, stored.diskStores);

    // The cache holds exactly one entry for the one key.
    int entries = 0;
    for (const auto &item :
         std::filesystem::directory_iterator(options.cacheDir)) {
        EXPECT_EQ(item.path().extension(), ".so");
        ++entries;
    }
    EXPECT_EQ(entries, 1);
}

TEST(SystemJit, DiskCacheRecoversFromCorruptEntry)
{
    JitOptions options;
    options.optLevel = "-O0";
    options.cacheDir = makeCacheDir("jit_corrupt_cache");
    std::string source =
        "extern \"C\" int corrupt_test() { return 57; }";

    JitModule first(source, options);
    EXPECT_EQ(first.function<int (*)()>("corrupt_test")(), 57);

    // Truncate/garble the published entry, as a crashed writer or a
    // disk error would.
    std::string entry;
    for (const auto &item :
         std::filesystem::directory_iterator(options.cacheDir))
        entry = item.path().string();
    ASSERT_FALSE(entry.empty());
    writeStringToFile(entry, "this is not a shared object");

    clearJitMemoryCacheForTesting();
    JitCacheStats before = jitCacheStats();
    JitModule second(source, options);
    // dlopen on the corrupt entry fails, so the source recompiles and
    // the entry is overwritten with a good .so.
    EXPECT_GT(second.compileSeconds(), 0.0);
    EXPECT_EQ(second.function<int (*)()>("corrupt_test")(), 57);
    JitCacheStats after = jitCacheStats();
    EXPECT_EQ(after.diskHits, before.diskHits);
    EXPECT_EQ(after.diskStores, before.diskStores + 1);

    // The overwritten entry now loads cleanly.
    clearJitMemoryCacheForTesting();
    JitModule third(source, options);
    EXPECT_EQ(third.compileSeconds(), 0.0);
    EXPECT_EQ(third.function<int (*)()>("corrupt_test")(), 57);
}

TEST(SystemJit, DiskCacheEvictsLeastRecentlyUsedOverCap)
{
    JitOptions options;
    options.optLevel = "-O0";
    options.cacheDir = makeCacheDir("jit_lru_cache");

    // Learn one entry's size, then cap the cache at two and a half
    // entries so a third store must evict.
    JitModule first("extern \"C\" int lru0() { return 0; }", options);
    int64_t entry_bytes = 0;
    std::string first_entry;
    for (const auto &item :
         std::filesystem::directory_iterator(options.cacheDir)) {
        entry_bytes = static_cast<int64_t>(
            std::filesystem::file_size(item.path()));
        first_entry = item.path().string();
    }
    ASSERT_GT(entry_bytes, 0);
    options.cacheMaxBytes = entry_bytes * 2 + entry_bytes / 2;

    JitCacheStats before = jitCacheStats();
    JitModule second("extern \"C\" int lru1() { return 1; }", options);
    EXPECT_EQ(jitCacheStats().diskEvictions, before.diskEvictions)
        << "two entries fit under the cap";

    // A disk hit refreshes lru0's recency, so the eviction below must
    // fall on lru1 instead.
    clearJitMemoryCacheForTesting();
    JitModule touch("extern \"C\" int lru0() { return 0; }", options);
    EXPECT_EQ(touch.compileSeconds(), 0.0);

    JitModule third("extern \"C\" int lru2() { return 2; }", options);
    JitCacheStats after = jitCacheStats();
    EXPECT_EQ(after.diskEvictions, before.diskEvictions + 1);
    EXPECT_TRUE(std::filesystem::exists(first_entry))
        << "the touched entry must survive";
    int entries = 0;
    for (const auto &item :
         std::filesystem::directory_iterator(options.cacheDir)) {
        (void)item;
        ++entries;
    }
    EXPECT_EQ(entries, 2);

    // The survivors still load from disk in a fresh process.
    clearJitMemoryCacheForTesting();
    JitModule reload("extern \"C\" int lru2() { return 2; }", options);
    EXPECT_EQ(reload.compileSeconds(), 0.0);
    EXPECT_EQ(reload.function<int (*)()>("lru2")(), 2);

    // An unlimited cap (the default) never evicts.
    options.cacheMaxBytes = 0;
    JitCacheStats unlimited = jitCacheStats();
    JitModule fourth("extern \"C\" int lru3() { return 3; }", options);
    EXPECT_EQ(jitCacheStats().diskEvictions, unlimited.diskEvictions);
}

/** The .so entries currently in @p dir. */
std::set<std::string>
cacheEntries(const std::string &dir)
{
    std::set<std::string> entries;
    for (const auto &item : std::filesystem::directory_iterator(dir)) {
        if (item.path().extension() == ".so")
            entries.insert(item.path().string());
    }
    return entries;
}

/** The single entry in @p after that is not in @p before. */
std::string
newEntry(const std::set<std::string> &before,
         const std::set<std::string> &after)
{
    std::string added;
    for (const std::string &entry : after) {
        if (!before.count(entry)) {
            EXPECT_TRUE(added.empty()) << "more than one new entry";
            added = entry;
        }
    }
    EXPECT_FALSE(added.empty());
    return added;
}

/**
 * A cap smaller than any single entry must never evict the entry just
 * stored (that would make the cache thrash uselessly: store, evict,
 * recompile, forever) — it holds exactly the newest entry instead.
 */
TEST(SystemJit, DiskCacheCapSmallerThanOneEntryKeepsNewestStore)
{
    JitOptions options;
    options.optLevel = "-O0";
    options.cacheDir = makeCacheDir("jit_tiny_cap_cache");
    options.cacheMaxBytes = 1;

    JitModule first("extern \"C\" int tiny0() { return 0; }", options);
    std::set<std::string> entries = cacheEntries(options.cacheDir);
    EXPECT_EQ(entries.size(), 1u)
        << "the just-stored entry survives its own store";

    // The next store keeps only itself: the older entry is the one
    // evicted.
    std::string first_entry = *entries.begin();
    JitModule second("extern \"C\" int tiny1() { return 1; }", options);
    entries = cacheEntries(options.cacheDir);
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_FALSE(entries.count(first_entry));

    // The surviving entry still serves a fresh process, and a pure
    // disk hit performs no store, hence no eviction pass.
    clearJitMemoryCacheForTesting();
    JitCacheStats before = jitCacheStats();
    JitModule reload("extern \"C\" int tiny1() { return 1; }", options);
    EXPECT_EQ(reload.compileSeconds(), 0.0);
    EXPECT_EQ(reload.function<int (*)()>("tiny1")(), 1);
    EXPECT_EQ(jitCacheStats().diskEvictions, before.diskEvictions);
    EXPECT_EQ(cacheEntries(options.cacheDir).size(), 1u);
}

/**
 * Eviction order is mtime order, and a disk hit refreshes its entry's
 * mtime — pinning the mtimes explicitly makes the ordering fully
 * deterministic (no reliance on store timing or clock granularity).
 */
TEST(SystemJit, DiskCacheEvictionOrderFollowsMtimeTouches)
{
    namespace fs = std::filesystem;
    JitOptions options;
    options.optLevel = "-O0";
    options.cacheDir = makeCacheDir("jit_mtime_cache");

    std::set<std::string> seen;
    JitModule a("extern \"C\" int mt0() { return 0; }", options);
    std::set<std::string> now_stored = cacheEntries(options.cacheDir);
    std::string entry_a = newEntry(seen, now_stored);
    seen = now_stored;
    JitModule b("extern \"C\" int mt1() { return 1; }", options);
    now_stored = cacheEntries(options.cacheDir);
    std::string entry_b = newEntry(seen, now_stored);
    seen = now_stored;
    JitModule c("extern \"C\" int mt2() { return 2; }", options);
    now_stored = cacheEntries(options.cacheDir);
    std::string entry_c = newEntry(seen, now_stored);
    int64_t entry_bytes =
        static_cast<int64_t>(fs::file_size(entry_a));

    // Pin the recency order oldest-first as A, B, C.
    auto now = fs::file_time_type::clock::now();
    fs::last_write_time(entry_a, now - std::chrono::hours(3));
    fs::last_write_time(entry_b, now - std::chrono::hours(2));
    fs::last_write_time(entry_c, now - std::chrono::hours(1));

    // A disk hit on A must touch it ahead of B and C.
    clearJitMemoryCacheForTesting();
    JitModule touch("extern \"C\" int mt0() { return 0; }", options);
    EXPECT_EQ(touch.compileSeconds(), 0.0);
    EXPECT_GT(fs::last_write_time(entry_a),
              fs::last_write_time(entry_c));

    // Cap to three and a half entries and store a fourth: the evicted
    // entry must be B — the stale oldest — not A (touched) and not
    // the fresh store.
    options.cacheMaxBytes = entry_bytes * 3 + entry_bytes / 2;
    JitCacheStats before = jitCacheStats();
    JitModule d("extern \"C\" int mt3() { return 3; }", options);
    EXPECT_EQ(jitCacheStats().diskEvictions, before.diskEvictions + 1);
    std::set<std::string> entries = cacheEntries(options.cacheDir);
    EXPECT_TRUE(entries.count(entry_a)) << "touched entry evicted";
    EXPECT_FALSE(entries.count(entry_b)) << "stale entry must go";
    EXPECT_TRUE(entries.count(entry_c));
    EXPECT_EQ(entries.size(), 3u);
}

/**
 * A corrupt cached entry discovered by two Sessions at once: both
 * recompile, one's store races the other's, and both must come up
 * predicting correctly with a loadable entry left behind.
 */
TEST(SystemJit, CorruptEntryRecompileRacesConcurrentStore)
{
    using testing::makeRandomForest;
    using testing::makeRandomRows;

    testing::RandomForestSpec spec;
    spec.numFeatures = 8;
    spec.numTrees = 10;
    spec.maxDepth = 5;
    spec.seed = 2024;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    hir::Schedule schedule;
    schedule.tileSize = 2;

    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    options.jit.cacheDir = makeCacheDir("jit_race_cache");

    int64_t num_rows = 19;
    std::vector<float> rows = makeRandomRows(8, num_rows, 77);
    std::vector<float> expected(static_cast<size_t>(num_rows));
    {
        Session seeder = compile(forest, schedule, options);
        seeder.predict(rows.data(), num_rows, expected.data());
    }

    // Garble every cached object, as a crashed writer would.
    for (const std::string &entry : cacheEntries(options.jit.cacheDir))
        writeStringToFile(entry, "garbage, not ELF");
    clearJitMemoryCacheForTesting();

    // Two Sessions race the recompile + store on the same cacheDir.
    std::vector<float> out_a(static_cast<size_t>(num_rows), -1.0f);
    std::vector<float> out_b(static_cast<size_t>(num_rows), -1.0f);
    std::thread racer([&] {
        Session session = compile(forest, schedule, options);
        session.predict(rows.data(), num_rows, out_a.data());
    });
    Session session = compile(forest, schedule, options);
    session.predict(rows.data(), num_rows, out_b.data());
    racer.join();
    expectPredictionsExact(expected, out_a);
    expectPredictionsExact(expected, out_b);

    // Whichever store won, the published entry now loads cleanly.
    clearJitMemoryCacheForTesting();
    Session reload = compile(forest, schedule, options);
    std::vector<float> out_c(static_cast<size_t>(num_rows), -1.0f);
    reload.predict(rows.data(), num_rows, out_c.data());
    expectPredictionsExact(expected, out_c);
    EXPECT_EQ(reload.artifacts().jitCompileSeconds, 0.0);
    // A cache hit still records the emitted source.
    EXPECT_NE(reload.artifacts().generatedSource.find("treebeard_predict"),
              std::string::npos);
}

struct EmitterCase
{
    hir::LoopOrder loopOrder;
    hir::MemoryLayout layout;
    int32_t tileSize;
    int32_t interleave;
    bool unroll;
};

class CppEmitterSweep : public ::testing::TestWithParam<EmitterCase>
{};

TEST_P(CppEmitterSweep, CompiledSourceMatchesReference)
{
    const EmitterCase &c = GetParam();
    testing::RandomForestSpec spec;
    spec.numTrees = 12;
    spec.seed = 71;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    std::vector<float> rows = makeRandomRows(spec.numFeatures, 90, 72);
    std::vector<float> expected = referencePredictions(forest, rows);

    hir::Schedule schedule;
    schedule.loopOrder = c.loopOrder;
    schedule.layout = c.layout;
    schedule.tileSize = c.tileSize;
    schedule.interleaveFactor = c.interleave;
    schedule.padAndUnrollWalks = c.unroll;

    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    lir::ForestBuffers buffers = lir::buildForestBuffers(module);

    JitOptions jit_options;
    jit_options.optLevel = "-O0";
    JitCompiledSession session(std::move(buffers), module.groups(),
                               schedule, jit_options);

    std::vector<float> actual(90);
    session.predict(rows.data(), 90, actual.data());
    expectPredictionsExact(expected, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CppEmitterSweep,
    ::testing::Values(
        EmitterCase{hir::LoopOrder::kOneTreeAtATime,
                    hir::MemoryLayout::kSparse, 8, 1, true},
        EmitterCase{hir::LoopOrder::kOneTreeAtATime,
                    hir::MemoryLayout::kSparse, 4, 4, true},
        EmitterCase{hir::LoopOrder::kOneRowAtATime,
                    hir::MemoryLayout::kSparse, 8, 2, false},
        EmitterCase{hir::LoopOrder::kOneTreeAtATime,
                    hir::MemoryLayout::kArray, 4, 1, true},
        EmitterCase{hir::LoopOrder::kOneRowAtATime,
                    hir::MemoryLayout::kArray, 2, 4, true},
        EmitterCase{hir::LoopOrder::kOneTreeAtATime,
                    hir::MemoryLayout::kPacked, 8, 1, true},
        EmitterCase{hir::LoopOrder::kOneTreeAtATime,
                    hir::MemoryLayout::kPacked, 4, 4, false},
        EmitterCase{hir::LoopOrder::kOneRowAtATime,
                    hir::MemoryLayout::kPacked, 8, 2, true}));

TEST(CppEmitter, SourceReflectsSchedule)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 4;
    spec.seed = 73;
    model::Forest forest = makeRandomForest(spec);

    hir::Schedule schedule;
    schedule.tileSize = 4;
    schedule.interleaveFactor = 4;
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    lir::ForestBuffers buffers = lir::buildForestBuffers(module);

    std::string source = emitPredictForestSource(
        buffers, module.groups(), schedule);
    // The kernels the kernel runtime dispatches to for this schedule:
    // tile size, layout, interleave factor, missing-value handling.
    EXPECT_NE(source.find("runtime::PlanKernels<4, "
                          "lir::LayoutKind::kSparse, 4, true>"),
              std::string::npos);
    // One group-table entry per tree group.
    EXPECT_NE(source.find("runtime::WalkGroup kGroups[" +
                          std::to_string(module.groups().size()) + "]"),
              std::string::npos);

    // The NaN-free promise drops missing-value handling; the
    // row-parallel traversal selects the lane-group kernels.
    schedule.assumeNoMissingValues = true;
    schedule.traversal = hir::TraversalKind::kRowParallel;
    source = emitPredictForestSource(buffers, module.groups(), schedule);
    EXPECT_NE(source.find("runtime::RowParallelKernels<4, "
                          "lir::LayoutKind::kSparse, false>"),
              std::string::npos);
}

/** Emit a source string for a small forest under @p schedule. */
std::string
emitForSchedule(const model::Forest &forest,
                const hir::Schedule &schedule)
{
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    lir::ForestBuffers buffers = lir::buildForestBuffers(module);
    return emitPredictForestSource(buffers, module.groups(), schedule);
}

/** One point of the standalone-compilation grid. */
struct StandaloneCase
{
    hir::MemoryLayout layout;
    hir::PackedPrecision precision;
    int32_t tileSize;
    hir::TraversalKind traversal;
};

class CppEmitterStandalone
    : public ::testing::TestWithParam<StandaloneCase>
{};

/**
 * The emitted translation unit carries every header it instantiates:
 * it compiles with no include path, warning-free under -Wall -Wextra
 * -Werror, with and without the host's vector ISA.
 */
TEST_P(CppEmitterStandalone, CompilesWithoutIncludePath)
{
    const StandaloneCase &c = GetParam();
    testing::RandomForestSpec spec;
    spec.numTrees = 6;
    spec.seed = 81;
    model::Forest forest = makeRandomForest(spec);
    hir::Schedule schedule;
    schedule.layout = c.layout;
    schedule.packedPrecision = c.precision;
    schedule.tileSize = c.tileSize;
    schedule.traversal = c.traversal;
    std::string source = emitForSchedule(forest, schedule);
    EXPECT_EQ(source.find("#include \""), std::string::npos);

    JitOptions options;
    options.optLevel = "-O0";
    options.extraFlags = "-Wall -Wextra -Werror";
    for (const JitOptions &flags : {options, withHostSimdFlags(options)}) {
        JitModule module(source, flags);
        EXPECT_NE(module.symbol("treebeard_predict"), nullptr);
        EXPECT_NE(module.symbol("treebeard_predict_worker"), nullptr);
    }
}

std::vector<StandaloneCase>
standaloneCases()
{
    struct LayoutChoice
    {
        hir::MemoryLayout layout;
        hir::PackedPrecision precision;
    };
    const LayoutChoice layouts[] = {
        {hir::MemoryLayout::kArray, hir::PackedPrecision::kF32},
        {hir::MemoryLayout::kSparse, hir::PackedPrecision::kF32},
        {hir::MemoryLayout::kPacked, hir::PackedPrecision::kF32},
        {hir::MemoryLayout::kPacked, hir::PackedPrecision::kI16},
    };
    std::vector<StandaloneCase> cases;
    for (const LayoutChoice &layout : layouts) {
        for (int32_t tile_size : {1, 4, 8}) {
            for (hir::TraversalKind traversal :
                 {hir::TraversalKind::kNodeParallel,
                  hir::TraversalKind::kRowParallel}) {
                cases.push_back({layout.layout, layout.precision,
                                 tile_size, traversal});
            }
        }
    }
    return cases;
}

std::string
standaloneCaseName(const ::testing::TestParamInfo<StandaloneCase> &info)
{
    const StandaloneCase &c = info.param;
    std::string layout = hir::memoryLayoutName(c.layout);
    if (c.precision == hir::PackedPrecision::kI16)
        layout += "_i16";
    return layout + "_t" + std::to_string(c.tileSize) +
           (c.traversal == hir::TraversalKind::kRowParallel ? "_row"
                                                            : "_node");
}

INSTANTIATE_TEST_SUITE_P(Grid, CppEmitterStandalone,
                         ::testing::ValuesIn(standaloneCases()),
                         standaloneCaseName);

/**
 * Two compiles of the same plan emit the same text, byte for byte: the
 * source names no buffer address, path or time. (The repository
 * benchmark fails a run whose source size differs between set-ups,
 * and the JIT cache keys on the text.)
 */
TEST(CppEmitter, EmissionIsDeterministic)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 9;
    spec.seed = 82;
    model::Forest forest = makeRandomForest(spec);
    for (hir::MemoryLayout layout :
         {hir::MemoryLayout::kArray, hir::MemoryLayout::kSparse,
          hir::MemoryLayout::kPacked}) {
        hir::Schedule schedule;
        schedule.layout = layout;
        schedule.tileSize = 8;
        // Both plans stay alive, so their buffers live at different
        // addresses.
        Session first = compile(forest, schedule);
        Session second = compile(forest, schedule);
        std::string a = emitPredictForestSource(
            first.plan().buffers(), first.plan().groups(), schedule);
        std::string b = emitPredictForestSource(
            second.plan().buffers(), second.plan().groups(), schedule);
        EXPECT_EQ(a, b) << hir::memoryLayoutName(layout);
    }
}

TEST(CppEmitter, AppendsHostSimdFlags)
{
    JitOptions options = withHostSimdFlags(JitOptions{});
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) {
        EXPECT_NE(options.extraFlags.find("-mavx2"),
                  std::string::npos);
        // Idempotent: a second application adds nothing.
        EXPECT_EQ(withHostSimdFlags(options).extraFlags,
                  options.extraFlags);
    }
#else
    EXPECT_EQ(options.extraFlags, JitOptions{}.extraFlags);
#endif
}

TEST(CppEmitter, MulticlassCompiledSourceMatchesReference)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 12;
    spec.seed = 91;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    forest.setObjective(model::Objective::kMulticlassSoftmax);
    forest.setNumClasses(3);
    forest.setBaseScore(0.0f);

    int64_t num_rows = 40;
    std::vector<float> rows =
        makeRandomRows(spec.numFeatures, num_rows, 92);
    std::vector<float> expected(
        static_cast<size_t>(num_rows) * 3);
    forest.predictBatch(rows.data(), num_rows, expected.data());

    for (hir::LoopOrder order :
         {hir::LoopOrder::kOneTreeAtATime,
          hir::LoopOrder::kOneRowAtATime}) {
        hir::Schedule schedule;
        schedule.loopOrder = order;
        schedule.tileSize = 4;
        schedule.interleaveFactor = 2;

        hir::HirModule module(forest, schedule);
        module.runAllHirPasses();
        lir::ForestBuffers buffers = lir::buildForestBuffers(module);

        JitOptions jit_options;
        jit_options.optLevel = "-O0";
        JitCompiledSession session(std::move(buffers),
                                   module.groups(), schedule,
                                   jit_options);
        EXPECT_EQ(session.numClasses(), 3);

        std::vector<float> actual(
            static_cast<size_t>(num_rows) * 3);
        session.predict(rows.data(), num_rows, actual.data());
        expectPredictionsExact(expected, actual);
    }
}

} // namespace
} // namespace treebeard::codegen
