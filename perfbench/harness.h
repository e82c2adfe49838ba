/**
 * @file
 * Shared pieces of the repository benchmark: command-line arguments,
 * the result record printed as the last stdout line, sample
 * statistics, the in-memory span tracer, and the per-run scratch
 * directory the source JIT compiles into.
 */
#ifndef TREEBEARD_PERFBENCH_HARNESS_H
#define TREEBEARD_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "hir/schedule.h"
#include "model/forest.h"
#include "treebeard/compiler.h"

namespace perfbench {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for traces and the cross-run count record. */
    std::string outDir = ".";
};

/** One named metric of the printed result. */
struct Metric
{
    double value = 0.0;
    std::string unit;

    bool operator==(const Metric &) const = default;
};

/**
 * What a workload reports. `correct` turns false on any failed
 * correctness gate; `failed` counts operations that did not return
 * the expected output (errors, rejections, mismatches).
 */
struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a failed gate: logged to stderr, run marked incorrect. */
    void fail(const std::string &why);

    /** The one-line JSON object printed as the last stdout line. */
    std::string toJson() const;
};

// --- clocks and statistics -----------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated percentile @p q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}
/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/** The process's resident-set high-water mark in MiB. */
double peakRssMb();

/**
 * Split @p samples (time, value) into @p windows equal time windows
 * over [begin, end) and return each window's values. Reporting the
 * median of a per-window statistic keeps one host stall from moving
 * the run's figure.
 */
std::vector<std::vector<double>> splitWindows(
    const std::vector<std::pair<int64_t, double>> &samples,
    int64_t begin_ns, int64_t end_ns, int windows);

// --- tracing --------------------------------------------------------

/**
 * In-memory span recorder. Spans are recorded only by the benchmark,
 * around calls into the program's public functions; spans of one
 * request share an id. Nothing is written until write().
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        /** Index of the parent span + 1 (0 = root). */
        size_t parent = 0;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    /** Append a finished span; returns its index. Thread-safe. */
    size_t add(const std::string &name, uint64_t id, int64_t start_ns,
               int64_t end_ns, size_t parent = 0);

    /** Durations (us) of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /**
     * Per-name self time in seconds: each span's duration minus the
     * part of it its children cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write all spans and the self-time table as JSON. */
    void write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// --- shared set-up ---------------------------------------------------

/**
 * The schedule the paper reports as broadly best on Intel, pinned to
 * one thread. Kept here rather than shared with bench/ so that the
 * workload cannot change under a later commit that retunes the
 * figure benches.
 */
treebeard::hir::Schedule optimizedSchedule();

/**
 * A fresh directory under the process temp directory, removed with
 * everything in it when the object dies.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Record a finished compile [start, end) as a span with its pass
 * traces and system-compiler time as children, and add each layer's
 * seconds to @p layer_seconds (keys treebeard.compile, hir.pass,
 * mir.pass, lir.pass, codegen.jit).
 */
void recordCompile(Tracer &tracer, uint64_t id, int64_t start_ns,
                   int64_t end_ns,
                   const treebeard::CompilationArtifacts &artifacts,
                   std::map<std::string, double> &layer_seconds);

/**
 * Tiles visited and model bytes touched per row by @p forest under
 * optimizedSchedule(), from the kernel runtime's counters on a fixed,
 * seed-independent input; keyed runtime.{tiles,bytes}_per_row.<name>.
 */
std::map<std::string, Metric> walkCounts(
    const treebeard::data::SyntheticModelSpec &spec,
    const treebeard::model::Forest &forest);

/** Report the seconds recordCompile() summed per layer. */
void reportCompileLayers(std::map<std::string, double> &layer_seconds,
                         Result &result);

/**
 * Add tuner.grid_points to the deterministic @p counts, compare them
 * with the record a previous traced run of this same binary left in
 * args.outDir (a difference fails the run), store and report them.
 */
void reportCounts(const Args &args, std::map<std::string, Metric> counts,
                  Result &result);

// --- workloads ------------------------------------------------------

void runOfflineTable1(const Args &args, Result &result);
void runOnlineOpen(const Args &args, Result &result);

} // namespace perfbench

#endif // TREEBEARD_PERFBENCH_HARNESS_H
