/**
 * @file
 * Tests for the common substrate: bit utilities, RNG determinism and
 * distribution sanity, string helpers, logging semantics, and the
 * pass manager.
 */
#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "common/timer.h"
#include "ir/pass_manager.h"

namespace treebeard {
namespace {

TEST(Bits, TestAndSet)
{
    EXPECT_TRUE(testBit(0b1010, 1));
    EXPECT_FALSE(testBit(0b1010, 0));
    EXPECT_EQ(setBit(0, 3, true), 0b1000u);
    EXPECT_EQ(setBit(0b1111, 2, false), 0b1011u);
    EXPECT_EQ(popcount(0xFF), 8u);
    EXPECT_EQ(popcount(0), 0u);
}

TEST(Bits, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(3), 4u);
    EXPECT_EQ(nextPowerOfTwo(64), 64u);
    EXPECT_EQ(nextPowerOfTwo(65), 128u);
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
    EXPECT_EQ(ceilDiv(1024, 16), 64);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DistributionsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
        int64_t n = rng.uniformInt(-5, 5);
        EXPECT_GE(n, -5);
        EXPECT_LE(n, 5);
        double beta = rng.beta(2.0, 5.0);
        EXPECT_GE(beta, 0.0);
        EXPECT_LE(beta, 1.0);
    }
}

TEST(Rng, BetaSkewsLow)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 4000; ++i)
        sum += rng.beta(2.0, 5.0);
    // E[Beta(2,5)] = 2/7 ~ 0.2857.
    EXPECT_NEAR(sum / 4000.0, 2.0 / 7.0, 0.02);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(13);
    std::vector<double> weights{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i)
        counts[rng.weightedIndex(weights)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(StringUtils, SplitAndTrimAndJoin)
{
    EXPECT_EQ(splitString("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(trimString("  x y \t\n"), "x y");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_TRUE(startsWith("treebeard", "tree"));
    EXPECT_FALSE(startsWith("tree", "treebeard"));
    EXPECT_TRUE(endsWith("model.json", ".json"));
    EXPECT_FALSE(endsWith("model.json", ".csv"));
    EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(Logging, FatalThrowsAndFormats)
{
    try {
        fatal("value is ", 42, " not ", 3.5);
        FAIL() << "fatal must throw";
    } catch (const Error &error) {
        EXPECT_STREQ(error.what(), "value is 42 not 3.5");
    }
    EXPECT_NO_THROW(fatalIf(false, "never"));
    EXPECT_THROW(fatalIf(true, "always"), Error);
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer timer;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + i;
    double first = timer.elapsedSeconds();
    EXPECT_GT(first, 0.0);
    timer.reset();
    EXPECT_LE(timer.elapsedSeconds(), first + 1.0);
    EXPECT_GE(timer.elapsedMicros(), 0.0);
}

TEST(PassManager, RunsPassesInOrderWithTraces)
{
    ir::PassManager<std::vector<int>> pm;
    pm.addPass("append-1", [](std::vector<int> &v) { v.push_back(1); });
    pm.addPass("append-2", [](std::vector<int> &v) { v.push_back(2); });
    pm.addPass("double", [](std::vector<int> &v) {
        for (int &x : v)
            x *= 2;
    });
    pm.enableDumps([](const std::vector<int> &v) {
        std::string out;
        for (int x : v)
            out += std::to_string(x) + " ";
        return out;
    });

    std::vector<int> payload;
    pm.run(payload);
    EXPECT_EQ(payload, (std::vector<int>{2, 4}));
    ASSERT_EQ(pm.traces().size(), 3u);
    EXPECT_EQ(pm.traces()[0].name, "append-1");
    EXPECT_EQ(pm.traces()[0].dumpAfter, "1 ");
    EXPECT_EQ(pm.traces()[2].dumpAfter, "2 4 ");
    EXPECT_GE(pm.totalSeconds(), 0.0);

    // Re-running resets traces.
    pm.run(payload);
    EXPECT_EQ(pm.traces().size(), 3u);
}

} // namespace
} // namespace treebeard
