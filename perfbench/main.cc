/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * Runs one workload (offline-table1 or online-open)
 * and prints, as the last stdout line, one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics
 * untraced, the per-layer metrics of the layers the workload runs
 * traced. A traced run also writes its spans to
 * DIR/trace-<workload>-<seed>.json.
 */
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--out-dir")
            args.outDir = value;
        else
            usage("unknown flag " + flag);
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0))
        usage("--seconds must be positive");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.outDir);
    Result result;
    try {
        if (args.workload == "offline-table1")
            runOfflineTable1(args, result);
        else if (args.workload == "online-open")
            runOnlineOpen(args, result);
        else
            usage("unknown workload '" + args.workload + "'");
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << args.workload
                  << " aborted: " << error.what() << "\n";
        return 1;
    }
    std::cerr << "perfbench: " << args.workload << " attempted "
              << result.attempted << ", succeeded "
              << result.attempted - result.failed << ", failed "
              << result.failed << "\n";
    std::cout << result.toJson() << std::endl;
    return 0;
}
