/**
 * @file
 * End-to-end tests of the `treebeard` CLI binary: each subcommand is
 * invoked as a subprocess and its output/exit status checked. The
 * binary path is injected by CMake as TREEBEARD_CLI_PATH.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace treebeard {
namespace {

#ifndef TREEBEARD_CLI_PATH
#define TREEBEARD_CLI_PATH "treebeard"
#endif

/** Run a CLI invocation, capturing stdout+stderr and the status. */
int
runCli(const std::string &arguments, std::string &output)
{
    std::string command =
        std::string(TREEBEARD_CLI_PATH) + " " + arguments + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buffer[4096];
    output.clear();
    while (size_t n = fread(buffer, 1, sizeof(buffer), pipe))
        output.append(buffer, n);
    int status = pclose(pipe);
    return WEXITSTATUS(status);
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

TEST(Cli, NoArgumentsPrintsUsage)
{
    std::string output;
    EXPECT_EQ(runCli("", output), 2);
    EXPECT_NE(output.find("usage:"), std::string::npos);
    EXPECT_EQ(runCli("unknown-subcommand", output), 2);
}

TEST(Cli, SynthStatsRoundTrip)
{
    std::string model = tempPath("cli_model.json");
    std::string output;
    ASSERT_EQ(runCli("synth airline " + model + " 20", output), 0)
        << output;
    EXPECT_NE(output.find("20 trees"), std::string::npos);

    ASSERT_EQ(runCli("stats " + model, output), 0) << output;
    EXPECT_NE(output.find("features:        13"), std::string::npos);
    EXPECT_NE(output.find("trees:           20"), std::string::npos);
}

TEST(Cli, CompileReportsPipeline)
{
    std::string model = tempPath("cli_model2.json");
    std::string output;
    ASSERT_EQ(runCli("synth higgs " + model + " 10", output), 0);
    ASSERT_EQ(runCli("compile " + model +
                         " --tile 4 --interleave 4 --dump-ir",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("compiled in"), std::string::npos);
    EXPECT_NE(output.find("hir-tiling"), std::string::npos);
    EXPECT_NE(output.find("hir.module"), std::string::npos);
    EXPECT_NE(output.find("mir.func"), std::string::npos);
    EXPECT_NE(output.find("interleave=4"), std::string::npos);
}

TEST(Cli, PredictWritesCsv)
{
    std::string model = tempPath("cli_model3.json");
    std::string input = tempPath("cli_input.csv");
    std::string result = tempPath("cli_out.csv");
    std::string output;
    ASSERT_EQ(runCli("synth airline " + model + " 5", output), 0);

    // 13-feature rows.
    std::string csv;
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 13; ++c)
            csv += (c ? "," : "") + std::to_string(0.1 * (r + c));
        csv += "\n";
    }
    writeStringToFile(input, csv);

    ASSERT_EQ(runCli("predict " + model + " " + input + " " + result,
                     output),
              0)
        << output;
    EXPECT_NE(output.find("wrote 4 predictions"), std::string::npos);
    std::string written = readFileToString(result);
    EXPECT_EQ(std::count(written.begin(), written.end(), '\n'), 4);

    // Feature-count mismatch is a clean error.
    writeStringToFile(input, "1.0,2.0\n");
    EXPECT_EQ(runCli("predict " + model + " " + input, output), 1);
    EXPECT_NE(output.find("features"), std::string::npos);
}

TEST(Cli, BenchPrintsTiming)
{
    std::string model = tempPath("cli_model4.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 5", output), 0);
    ASSERT_EQ(runCli("bench " + model + " 64 --tile 8", output), 0)
        << output;
    EXPECT_NE(output.find("us/row"), std::string::npos);
}

TEST(Cli, BenchResidentTimesDatasetPath)
{
    std::string model = tempPath("cli_model4b.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 5", output), 0);
    ASSERT_EQ(runCli("bench " + model +
                         " 64 --tile 8 --layout packed "
                         "--packed-precision i16 --resident",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("resident dataset"), std::string::npos);
    EXPECT_NE(output.find("us/row"), std::string::npos);

    // The row-chunk knob parses on any scheduled command, and a
    // negative chunk is a clean schedule error.
    ASSERT_EQ(runCli("bench " + model + " 64 --threads 2 --row-chunk 8",
                     output),
              0)
        << output;
    EXPECT_EQ(runCli("compile " + model + " --row-chunk -3", output),
              1);
    EXPECT_NE(output.find("row"), std::string::npos);
}

TEST(Cli, TraversalFlagSelectsRowParallel)
{
    std::string model = tempPath("cli_model4c.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 5", output), 0);
    ASSERT_EQ(runCli("compile " + model + " --tile 1 --traversal row",
                     output),
              0)
        << output;
    // The schedule echo carries the traversal tag.
    EXPECT_NE(output.find("+row-parallel"), std::string::npos);
    ASSERT_EQ(runCli("bench " + model + " 64 --tile 1 --traversal row",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("us/row"), std::string::npos);
    EXPECT_EQ(runCli("compile " + model + " --traversal diagonal",
                     output),
              1);
    EXPECT_NE(output.find("--traversal must be node or row"),
              std::string::npos);

    // Out-of-range chunks fail at flag-parse time with the schedule
    // diagnostic, before any model loading.
    EXPECT_EQ(runCli("compile " + model + " --row-chunk 99999999",
                     output),
              1);
    EXPECT_NE(output.find("row-chunk"), std::string::npos);
}

TEST(Cli, TuneDbAppendsJsonLines)
{
    std::string model = tempPath("cli_model4e.json");
    std::string db = tempPath("cli_tune_db.jsonl");
    std::remove(db.c_str());
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 3", output), 0);
    ASSERT_EQ(runCli("tune " + model + " 16 --db " + db, output), 0)
        << output;
    EXPECT_NE(output.find("appended tuning record to"),
              std::string::npos);

    std::string contents = readFileToString(db);
    // One line, parseable, carrying the model features and the swept
    // points.
    ASSERT_EQ(contents.find('\n'), contents.size() - 1);
    JsonValue record = JsonValue::parse(contents);
    EXPECT_EQ(record.at("model").at("num_trees").asInt(), 3);
    EXPECT_FALSE(record.at("points").asArray().empty());
    EXPECT_TRUE(record.at("best").at("schedule").contains("traversal"));
    std::remove(db.c_str());
}

TEST(Cli, RejectsBadFlagsCleanly)
{
    std::string model = tempPath("cli_model5.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 3", output), 0);
    EXPECT_EQ(runCli("compile " + model + " --tile 99", output), 1);
    EXPECT_NE(output.find("tile size"), std::string::npos);
    EXPECT_EQ(runCli("compile " + model + " --bogus", output), 1);
    EXPECT_EQ(runCli("stats /nonexistent/model.json", output), 1);
}

/**
 * The hot-path tier is gone: its flag is an unknown flag, and a
 * schedule document written while it existed loads only if it asked
 * for coverage 0 (the plain walk).
 */
TEST(Cli, RejectsHotPathFlagAndStaleSchedules)
{
    std::string model = tempPath("cli_model_hot.json");
    std::string schedule = tempPath("cli_schedule_hot.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 3", output), 0);
    EXPECT_EQ(runCli("compile " + model + " --hot-path 0.8", output), 1);
    EXPECT_NE(output.find("unknown flag"), std::string::npos) << output;

    auto write_schedule = [&schedule](const std::string &coverage) {
        writeStringToFile(
            schedule,
            "{\"loop_order\":\"one-tree-at-a-time\",\"tile_size\":8,"
            "\"tiling\":\"hybrid\",\"alpha\":0.075,\"beta\":0.9,"
            "\"pad_and_unroll\":true,\"peel\":true,"
            "\"pad_depth_slack\":2,\"interleave\":1,"
            "\"layout\":\"sparse\",\"threads\":1,"
            "\"hot_path_coverage\":" +
                coverage + "}");
    };
    write_schedule("0");
    EXPECT_EQ(runCli("verify " + model + " " + schedule, output), 0)
        << output;
    write_schedule("0.8");
    EXPECT_EQ(runCli("verify " + model + " " + schedule, output), 1)
        << output;
    EXPECT_NE(output.find("hir.schedule.hot-path.removed"),
              std::string::npos)
        << output;
}

TEST(Cli, RejectsUnknownBackend)
{
    std::string model = tempPath("cli_model6.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 3", output), 0);
    EXPECT_EQ(runCli("compile " + model + " --backend turbo", output),
              1);
    EXPECT_NE(output.find("--backend must be kernel or jit"),
              std::string::npos);
    EXPECT_EQ(runCli("tune " + model + " 16 --backend turbo", output),
              1);
    EXPECT_NE(output.find("--backend must be kernel, jit or both"),
              std::string::npos);
}

TEST(Cli, JitBackendCompilesAndPredicts)
{
    std::string model = tempPath("cli_model7.json");
    std::string input = tempPath("cli_jit_input.csv");
    std::string output;
    ASSERT_EQ(runCli("synth airline " + model + " 5", output), 0);

    std::string csv;
    for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 13; ++c)
            csv += (c ? "," : "") + std::to_string(0.2 * (r + c));
        csv += "\n";
    }
    writeStringToFile(input, csv);

    std::string kernel_out, jit_out;
    ASSERT_EQ(runCli("predict " + model + " " + input +
                         " --backend kernel",
                     kernel_out),
              0)
        << kernel_out;
    ASSERT_EQ(runCli("predict " + model + " " + input +
                         " --backend jit",
                     jit_out),
              0)
        << jit_out;
    EXPECT_EQ(kernel_out, jit_out);
}

TEST(Cli, JitCacheDirRoundTripAcrossProcesses)
{
    std::string model = tempPath("cli_model8.json");
    std::string cache = tempPath("cli_jit_cache");
    // The temp dir persists across test runs; start from a cold cache.
    std::filesystem::remove_all(cache);
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 4", output), 0);

    // First process compiles with the system compiler and stores.
    ASSERT_EQ(runCli("compile " + model +
                         " --tile 4 --backend jit --jit-cache-dir " +
                         cache,
                     output),
              0)
        << output;
    EXPECT_NE(output.find("backend: jit"), std::string::npos);
    EXPECT_NE(output.find("stored to disk cache"), std::string::npos);

    // A fresh process with the same model/schedule/flags is served
    // from the disk cache without invoking the system compiler.
    ASSERT_EQ(runCli("compile " + model +
                         " --tile 4 --backend jit --jit-cache-dir " +
                         cache,
                     output),
              0)
        << output;
    EXPECT_NE(output.find("disk cache hit (no compiler invoked)"),
              std::string::npos);
}

TEST(Cli, VerifyAcceptsCleanModel)
{
    std::string model = tempPath("cli_verify_ok.json");
    std::string output;
    ASSERT_EQ(runCli("synth airline " + model + " 5", output), 0);

    EXPECT_EQ(runCli("verify " + model, output), 0) << output;
    EXPECT_NE(output.find("verifies cleanly"), std::string::npos);

    // Layout/tile flags select the pipeline being verified.
    EXPECT_EQ(runCli("verify " + model + " --tile 3 --layout packed",
                     output),
              0)
        << output;
}

TEST(Cli, VerifyReportsModelDefectsWithCodes)
{
    std::string model = tempPath("cli_verify_bad.json");
    writeStringToFile(
        model,
        "{\"format\":\"treebeard\",\"version\":1,\"num_features\":3,"
        "\"objective\":\"regression\",\"base_score\":0,"
        "\"num_classes\":1,\"trees\":[{\"root\":0,"
        "\"threshold\":[0.5,1.0,2.0],\"feature\":[-4,-1,-1],"
        "\"left\":[1,-1,-1],\"right\":[2,-1,-1],"
        "\"hit_count\":[1,1,1]}]}");
    std::string output;
    EXPECT_EQ(runCli("verify " + model, output), 1) << output;
    EXPECT_NE(output.find("model.feature.negative"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("model-load"), std::string::npos) << output;
}

TEST(Cli, VerifyEmitsJsonReport)
{
    std::string model = tempPath("cli_verify_json.json");
    std::string output;
    ASSERT_EQ(runCli("synth year " + model + " 3", output), 0);

    EXPECT_EQ(runCli("verify " + model + " --json", output), 0)
        << output;
    JsonValue report = JsonValue::parse(output);
    EXPECT_EQ(report.at("errors").asInt(), 0);
    EXPECT_EQ(report.at("diagnostics").asArray().size(), 0u);
}

TEST(Cli, VerifyChecksScheduleJsonFile)
{
    std::string model = tempPath("cli_verify_m.json");
    std::string schedule = tempPath("cli_verify_s.json");
    std::string output;
    ASSERT_EQ(runCli("synth airline " + model + " 3", output), 0);
    writeStringToFile(
        schedule,
        "{\"loop_order\":\"one-tree-at-a-time\",\"tile_size\":42,"
        "\"tiling\":\"hybrid\",\"alpha\":0.075,\"beta\":0.9,"
        "\"pad_and_unroll\":true,\"peel\":true,"
        "\"pad_depth_slack\":2,\"interleave\":1,"
        "\"layout\":\"sparse\",\"threads\":1}");
    EXPECT_EQ(runCli("verify " + model + " " + schedule, output), 1)
        << output;
    EXPECT_NE(output.find("schedule.tile-size.range"),
              std::string::npos)
        << output;
}

TEST(Cli, ServeRunsClosedLoopDriver)
{
    std::string model = tempPath("cli_serve.json");
    std::string output;
    ASSERT_EQ(runCli("synth abalone " + model + " 10", output), 0);
    ASSERT_EQ(runCli("serve " + model +
                         " --clients 4 --requests 10 --max-delay-us "
                         "200 --tile 1 --tiling basic",
                     output),
              0)
        << output;
    // Routing handle, percentile table, and coalescing evidence.
    EXPECT_NE(output.find("as tb-"), std::string::npos) << output;
    EXPECT_NE(output.find("dynamic batching"), std::string::npos);
    EXPECT_NE(output.find("p99"), std::string::npos);
    EXPECT_NE(output.find("rows/sec"), std::string::npos);
    EXPECT_NE(output.find("coalesced"), std::string::npos);
}

TEST(Cli, ServeNoBatchingRunsUnbatchedBaseline)
{
    std::string model = tempPath("cli_serve_unbatched.json");
    std::string output;
    ASSERT_EQ(runCli("synth abalone " + model + " 10", output), 0);
    ASSERT_EQ(runCli("serve " + model +
                         " --clients 2 --requests 10 --no-batching",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("unbatched dispatch"), std::string::npos)
        << output;
    EXPECT_NE(output.find("0 size flushes, 0 deadline flushes"),
              std::string::npos)
        << output;
}

TEST(Cli, CompileAcceptsVerifyEachFlag)
{
    std::string model = tempPath("cli_verify_each.json");
    std::string output;
    ASSERT_EQ(runCli("synth airline " + model + " 5", output), 0);
    ASSERT_EQ(runCli("compile " + model + " --tile 4 --verify-each",
                     output),
              0)
        << output;
    EXPECT_NE(output.find("compiled in"), std::string::npos);
}

} // namespace
} // namespace treebeard
