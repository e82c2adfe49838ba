#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "tuner/auto_tuner.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Rows the deterministic walk counts are measured on. */
constexpr int64_t kCountRows = 256;

std::string
formatNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Result::fail(const std::string &why)
{
    std::cerr << "perfbench: FAILED GATE: " << why << "\n";
    correct = false;
}

std::string
Result::toJson() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        out << (first ? "" : ", ") << quoted(name)
            << ": {\"value\": " << formatNumber(metric.value)
            << ", \"unit\": " << quoted(metric.unit) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double position = q * static_cast<double>(values.size() - 1);
    size_t lower = static_cast<size_t>(position);
    size_t upper = std::min(lower + 1, values.size() - 1);
    double fraction = position - static_cast<double>(lower);
    return values[lower] + (values[upper] - values[lower]) * fraction;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<std::vector<double>>
splitWindows(const std::vector<std::pair<int64_t, double>> &samples,
             int64_t begin_ns, int64_t end_ns, int windows)
{
    std::vector<std::vector<double>> out(static_cast<size_t>(windows));
    double span = static_cast<double>(std::max<int64_t>(1, end_ns - begin_ns));
    for (const auto &[time_ns, value] : samples) {
        if (time_ns < begin_ns || time_ns >= end_ns)
            continue;
        auto index = static_cast<size_t>(
            static_cast<double>(time_ns - begin_ns) / span * windows);
        out[std::min(index, out.size() - 1)].push_back(value);
    }
    return out;
}

size_t
Tracer::add(const std::string &name, uint64_t id, int64_t start_ns,
            int64_t end_ns, size_t parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
    return spans_.size() - 1;
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name)
            out.push_back(static_cast<double>(span.endNs - span.startNs) /
                          1e3);
    }
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span &span : spans_) {
        if (span.parent != 0)
            children[span.parent - 1].emplace_back(span.startNs,
                                                   span.endNs);
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<int64_t, int64_t>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0;
        int64_t reach = span.startNs;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.endNs);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[span.name] +=
            static_cast<double>(span.endNs - span.startNs - covered) / 1e9;
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::map<std::string, double> self = selfSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"self_seconds\": {";
    bool first = true;
    for (const auto &[name, seconds] : self) {
        out << (first ? "" : ", ") << quoted(name) << ": "
            << formatNumber(seconds);
        first = false;
    }
    out << "},\n\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": " << quoted(span.name)
            << ", \"id\": " << span.id << ", \"parent\": "
            << (span.parent == 0 ? std::string("null")
                                 : std::to_string(span.parent - 1))
            << ", \"start_ns\": " << span.startNs
            << ", \"end_ns\": " << span.endNs << "}";
    }
    out << "\n]}\n";
}

treebeard::hir::Schedule
optimizedSchedule()
{
    using namespace treebeard::hir;
    Schedule schedule;
    schedule.loopOrder = LoopOrder::kOneTreeAtATime;
    schedule.tileSize = 8;
    schedule.tiling = TilingAlgorithm::kHybrid;
    schedule.layout = MemoryLayout::kSparse;
    schedule.padAndUnrollWalks = true;
    schedule.peelWalks = true;
    schedule.interleaveFactor = 8;
    schedule.numThreads = 1;
    // Benchmark inputs are NaN-free, as in the paper's setting.
    schedule.assumeNoMissingValues = true;
    return schedule;
}

ScratchDir::ScratchDir(const std::string &tag)
{
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("perfbench-" + std::to_string(getpid()) + "-" + tag + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
    fs::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

void
recordCompile(Tracer &tracer, uint64_t id, int64_t start_ns,
              int64_t end_ns,
              const treebeard::CompilationArtifacts &artifacts,
              std::map<std::string, double> &layer_seconds)
{
    size_t parent = tracer.add("treebeard.compile", id, start_ns, end_ns);
    layer_seconds["treebeard.compile"] +=
        static_cast<double>(end_ns - start_ns) / 1e9;
    // Pass traces carry durations only: lay them end to end from the
    // compile's start, and the system compiler at its end.
    int64_t cursor = start_ns;
    for (const treebeard::ir::PassTrace &pass : artifacts.passTraces) {
        std::string layer =
            pass.name.rfind("hir-", 0) == 0              ? "hir.pass"
            : pass.name.find("mir") != std::string::npos ? "mir.pass"
            : pass.name.find("lir") != std::string::npos ? "lir.pass"
                                                         : "other.pass";
        auto ns = static_cast<int64_t>(pass.seconds * 1e9);
        tracer.add(layer, id, cursor, cursor + ns, parent + 1);
        cursor += ns;
        layer_seconds[layer] += pass.seconds;
    }
    auto jit_ns = static_cast<int64_t>(artifacts.jitCompileSeconds * 1e9);
    if (jit_ns > 0)
        tracer.add("codegen.jit", id, end_ns - jit_ns, end_ns, parent + 1);
    layer_seconds["codegen.jit"] += artifacts.jitCompileSeconds;
}

std::map<std::string, Metric>
walkCounts(const treebeard::data::SyntheticModelSpec &spec,
           const treebeard::model::Forest &forest)
{
    using namespace treebeard;
    Session kernel = compile(forest, optimizedSchedule());
    data::Dataset input =
        data::generateFeatures(spec, kCountRows, /*seed_offset=*/0x5eed);
    std::vector<float> out(
        static_cast<size_t>(kCountRows * forest.numClasses()));
    runtime::WalkCounters counters;
    kernel.predictInstrumented(input.rows(), kCountRows, out.data(),
                               &counters);
    double rows = static_cast<double>(kCountRows);
    return {
        {"runtime.tiles_per_row." + spec.name,
         {static_cast<double>(counters.tilesVisited) / rows, "count"}},
        {"runtime.bytes_per_row." + spec.name,
         {static_cast<double>(counters.modelBytesTouched) / rows, "B"}},
    };
}

void
reportCompileLayers(std::map<std::string, double> &layer_seconds,
                    Result &result)
{
    result.set("treebeard.compile_s", layer_seconds["treebeard.compile"],
               "s");
    result.set("hir.pass_s", layer_seconds["hir.pass"], "s");
    result.set("mir.pass_s", layer_seconds["mir.pass"], "s");
    result.set("lir.pass_s", layer_seconds["lir.pass"], "s");
}

void
reportCounts(const Args &args, std::map<std::string, Metric> counts,
             Result &result)
{
    counts["tuner.grid_points"] = {
        static_cast<double>(
            treebeard::tuner::enumerateSchedules(
                treebeard::tuner::TunerOptions{})
                .size()),
        "count"};

    // The record is valid only for the binary that wrote it.
    struct stat exe = {};
    std::string fingerprint = "unknown";
    if (stat("/proc/self/exe", &exe) == 0) {
        fingerprint = std::to_string(exe.st_size) + "-" +
                      std::to_string(exe.st_mtim.tv_sec) + "-" +
                      std::to_string(exe.st_mtim.tv_nsec);
    }
    std::ostringstream record;
    record << fingerprint << "\n";
    for (const auto &[name, metric] : counts)
        record << name << " " << formatNumber(metric.value) << "\n";

    std::string path = args.outDir + "/counts-" + args.workload + ".txt";
    std::ifstream previous(path);
    if (previous) {
        std::stringstream text;
        text << previous.rdbuf();
        std::string old = text.str();
        if (old.rfind(fingerprint + "\n", 0) == 0 && old != record.str()) {
            result.fail("deterministic counts differ from the previous "
                        "traced run of this build (" + path + ")");
        }
    }
    std::ofstream(path) << record.str();
    result.metrics.insert(counts.begin(), counts.end());
}

} // namespace perfbench
