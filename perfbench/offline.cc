/**
 * @file
 * offline-table1: the eight Table I models compiled by the source JIT
 * and scored single-threaded, round-robin over fixed-size batches.
 * The compiler passes, code generation and the generated walk code
 * do nearly all the work; the serving stack does none.
 */
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "codegen/system_jit.h"
#include "data/synthetic.h"
#include "harness.h"
#include "treebeard/compiler.h"

namespace perfbench {

namespace {

using namespace treebeard;

/** Rows per Session::predict call. */
constexpr int64_t kBatchRows = 128;
/** Distinct input batches per model, cycled by the measured phase. */
constexpr int kBatchesPerModel = 8;
/**
 * Set-up repetitions per run; setup_s is their median. Each is
 * followed by a measured segment of --seconds / kSetupRepeats.
 */
constexpr int kSetupRepeats = 3;
/** Time windows per segment (rows_per_s is the median window). */
constexpr int kWindowsPerSegment = 2;
/** Tail percentile: a 10 s run gives each model ~200 batches on a
 * 4-vCPU x86 host, so ~20 lie beyond it. */
constexpr double kTailQuantile = 0.90;
/** Reassociation tolerance the compiler tests use against the
 * reference interpreter. */
constexpr double kReferenceTolerance = 2e-3;

struct Model
{
    data::SyntheticModelSpec spec;
    model::Forest forest;
    std::vector<std::vector<float>> batches;
    /** Kernel-backend outputs per batch; the JIT must equal them. */
    std::vector<std::vector<float>> expected;
    /** The JIT session of the latest set-up repetition. */
    std::unique_ptr<Session> jit;
    /** (end time, us) of each measured batch. */
    std::vector<std::pair<int64_t, double>> samples;
    std::vector<double> tracedUs;
    std::vector<double> untracedUs;
};

int64_t
outputsPerBatch(const Model &m)
{
    return kBatchRows * m.forest.numClasses();
}

/**
 * Compile every model with the source JIT into a fresh private cache,
 * so the system compiler runs for each; returns the wall seconds.
 * With a tracer, each compile becomes a span whose children are its
 * pass traces and the system-compiler time.
 */
double
compileAll(std::vector<Model> &models, Tracer *tracer,
           std::map<std::string, double> *layer_seconds,
           double *source_kb)
{
    for (Model &m : models)
        m.jit.reset();
    codegen::clearJitMemoryCacheForTesting();
    ScratchDir cache("jit-cache");
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.cacheDir = cache.path();

    double total = 0.0;
    *source_kb = 0.0;
    for (size_t i = 0; i < models.size(); ++i) {
        Model &m = models[i];
        int64_t start = nowNs();
        m.jit = std::make_unique<Session>(
            compile(m.forest, optimizedSchedule(), options));
        int64_t end = nowNs();
        total += static_cast<double>(end - start) / 1e9;

        const CompilationArtifacts &art = m.jit->artifacts();
        *source_kb += static_cast<double>(art.generatedSource.size()) / 1024;
        if (tracer != nullptr)
            recordCompile(*tracer, i, start, end, art, *layer_seconds);
    }
    return total;
}

} // namespace

void
runOfflineTable1(const Args &args, Result &result)
{
    // Synthesis and reference outputs: before any timed set-up.
    std::vector<Model> models;
    for (const data::SyntheticModelSpec &spec :
         data::standardBenchmarkSuite()) {
        Model m;
        m.spec = spec;
        m.forest = data::synthesizeForest(spec);
        Session kernel = compile(m.forest, optimizedSchedule());
        for (int b = 0; b < kBatchesPerModel; ++b) {
            data::Dataset input = data::generateFeatures(
                spec, kBatchRows, args.seed * kBatchesPerModel + b);
            std::vector<float> rows(input.rows(),
                                    input.rows() +
                                        kBatchRows * spec.numFeatures);
            std::vector<float> reference(
                static_cast<size_t>(outputsPerBatch(m)));
            std::vector<float> out(reference.size());
            m.forest.predictBatch(rows.data(), kBatchRows,
                                  reference.data());
            kernel.predict(rows.data(), kBatchRows, out.data());
            for (size_t k = 0; k < out.size(); ++k) {
                if (!(std::fabs(out[k] - reference[k]) <=
                      kReferenceTolerance)) {
                    result.fail(spec.name + ": kernel output " +
                                std::to_string(out[k]) +
                                " differs from the reference " +
                                std::to_string(reference[k]));
                    break;
                }
            }
            m.batches.push_back(std::move(rows));
            m.expected.push_back(std::move(out));
        }
        models.push_back(std::move(m));
    }

    std::vector<float> out;
    auto run_batch = [&](Model &m, int b) {
        out.resize(static_cast<size_t>(outputsPerBatch(m)));
        int64_t start = nowNs();
        m.jit->predict(m.batches[b].data(), kBatchRows, out.data());
        int64_t end = nowNs();
        if (std::memcmp(out.data(), m.expected[b].data(),
                        out.size() * sizeof(float)) != 0) {
            result.failed += 1;
            result.fail(m.spec.name + ": JIT output differs from the "
                                      "kernel backend");
        }
        return std::make_pair(start, end);
    };

    // Set-up and measurement alternate: each repetition compiles every
    // model afresh and then measures the new sessions for an equal
    // share of --seconds. Spread over the whole run, the measured time
    // averages over more of the host's slow speed swings than one
    // block would, and over several placements of the model buffers
    // and generated code.
    Tracer tracer;
    std::map<std::string, double> layer_seconds;
    std::vector<double> setups;
    std::vector<std::pair<int64_t, int64_t>> segments;
    double source_kb = 0.0;
    int repeats = args.trace ? 2 : kSetupRepeats;
    uint64_t op = 0;
    for (int rep = 0; rep < repeats; ++rep) {
        double previous_kb = source_kb;
        bool traced_compile = args.trace && rep == repeats - 1;
        setups.push_back(compileAll(models,
                                    traced_compile ? &tracer : nullptr,
                                    &layer_seconds, &source_kb));
        std::cerr << "perfbench: set-up " << setups.back() << " s\n";
        if (rep > 0 && source_kb != previous_kb) {
            result.fail("generated source size differs between two "
                        "compiles of the same models");
        }

        // Warm-up: every batch of every model once, outputs checked.
        for (Model &m : models) {
            for (int b = 0; b < kBatchesPerModel; ++b)
                run_batch(m, b);
        }

        // Measured segment: round-robin, one batch per model a round.
        int64_t begin = nowNs();
        int64_t deadline =
            begin + static_cast<int64_t>(args.seconds / repeats * 1e9);
        for (int64_t round = 0; nowNs() < deadline; ++round) {
            int b = static_cast<int>(round % kBatchesPerModel);
            // In a traced run, every other cycle over the batches
            // records spans; the gap to the cycles that do not is the
            // overhead.
            bool traced =
                args.trace && (round / kBatchesPerModel) % 2 == 1;
            for (Model &m : models) {
                auto [start, end] = run_batch(m, b);
                result.attempted += 1;
                double us = static_cast<double>(end - start) / 1e3;
                m.samples.emplace_back(end, us);
                if (traced) {
                    tracer.add("runtime.batch." + m.spec.name, op, start,
                               end);
                    m.tracedUs.push_back(us);
                } else {
                    m.untracedUs.push_back(us);
                }
                ++op;
            }
        }
        segments.emplace_back(begin, nowNs());
    }

    std::vector<double> latency, tail, throughput;
    for (Model &m : models) {
        std::vector<double> all;
        for (const auto &sample : m.samples)
            all.push_back(sample.second);
        if (static_cast<double>(all.size()) * (1.0 - kTailQuantile) < 10) {
            std::cerr << "perfbench: warning: " << m.spec.name << " has "
                      << all.size() << " batches, under 10 beyond p"
                      << kTailQuantile * 100 << "\n";
        }
        latency.push_back(median(all));
        tail.push_back(percentile(all, kTailQuantile));
        std::vector<double> window_rates;
        for (auto [begin, end] : segments) {
            for (const std::vector<double> &window :
                 splitWindows(m.samples, begin, end, kWindowsPerSegment)) {
                double busy_us = 0.0;
                for (double us : window)
                    busy_us += us;
                if (busy_us > 0.0) {
                    window_rates.push_back(
                        static_cast<double>(window.size()) * kBatchRows /
                        (busy_us / 1e6));
                }
            }
        }
        throughput.push_back(median(window_rates));
    }

    if (!args.trace) {
        result.set("setup_s", median(setups), "s");
        result.set("rows_per_s", geomean(throughput), "rows/s");
        result.set("latency_us", geomean(latency), "us");
        result.set("tail_us", geomean(tail), "us");
        result.set("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    std::map<std::string, Metric> counts;
    std::vector<double> per_row, traced_latency, untraced_latency;
    for (const Model &m : models) {
        double batch_us = median(m.tracedUs);
        result.set("runtime.batch_us." + m.spec.name, batch_us, "us");
        per_row.push_back(batch_us / kBatchRows);
        traced_latency.push_back(batch_us);
        untraced_latency.push_back(median(m.untracedUs));
        std::map<std::string, Metric> first = walkCounts(m.spec, m.forest);
        if (walkCounts(m.spec, m.forest) != first)
            result.fail(m.spec.name + ": walk counts differ between two "
                                      "instrumented runs");
        counts.insert(first.begin(), first.end());
    }
    counts["codegen.source_kb"] = {source_kb, "KiB"};
    reportCounts(args, counts, result);
    reportCompileLayers(layer_seconds, result);
    result.set("codegen.jit_s", layer_seconds["codegen.jit"], "s");
    result.set("runtime.session_us_per_row", geomean(per_row), "us");
    result.set("trace.latency_us", geomean(traced_latency), "us");
    result.set("trace.overhead_pct",
               (geomean(traced_latency) / geomean(untraced_latency) - 1) *
                   100,
               "%");
    tracer.write(args.outDir + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json");
}

} // namespace perfbench
