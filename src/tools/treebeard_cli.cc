/**
 * @file
 * The `treebeard` command-line tool: model inspection, synthesis,
 * compilation (with IR dumps), batch prediction, timing and schedule
 * auto-tuning — the operational surface the original artifact exposes
 * through its scripts.
 *
 * Usage:
 *   treebeard stats   <model.json>
 *   treebeard synth   <benchmark-name> <out-model.json> [trees]
 *   treebeard compile <model.json> [schedule flags] [--dump-ir]
 *   treebeard predict <model.json> <input.csv> [out.csv] [flags]
 *   treebeard bench   <model.json> [batch] [flags]
 *   treebeard tune    <model.json> [sample-rows] [tune flags]
 *   treebeard verify  <model.json> [schedule.json] [flags] [--json]
 *   treebeard serve   <model.json> [serve flags] [schedule flags]
 *
 * Schedule flags: --tile N --interleave N --threads N
 *   --row-chunk N (rows per parallel-loop chunk; 0 = one per worker)
 *   --order tree|row --layout sparse|array|packed
 *   --packed-precision f32|i16 (int16-quantized packed records)
 *   --traversal node|row (SIMD shape: node-parallel tile evaluation
 *     vs row-parallel lane groups walking 8 rows in lockstep)
 *   --tiling basic|probability|hybrid|min-max-depth
 *   --no-unroll --no-peel --verify-each
 *
 * bench additionally takes --resident: bind the batch once as a
 * resident Dataset (quantize-once on i16 packed plans) and time
 * predictDataset() instead of per-call predict().
 *
 * Backend flags (compile/predict/bench): --backend kernel|jit
 *   --jit-cache-dir DIR (persist jit-compiled objects across runs)
 *   --jit-cache-max-bytes N (LRU-evict the disk cache past N bytes)
 *
 * Tune flags: --backend kernel|jit|both --jit-cache-dir DIR
 *   --jit-cache-max-bytes N
 *   --db PATH (append this run — model features, every timed point,
 *     the chosen schedule — as one JSON line to a tuning database)
 *
 * serve starts the in-process multi-tenant serving layer (model
 * registry + dynamic batcher, src/serve) on the model and drives it
 * with a closed-loop load: --clients N caller threads each issue
 * --requests R requests of --rows K rows back-to-back, then the
 * driver reports p50/p95/p99 request latency, rows/sec and the
 * batching counters. Serve flags: --clients N --requests N --rows N
 *   --max-batch-rows N (size-flush target, rowChunkRows-aligned)
 *   --max-delay-us N (deadline flush bound)
 *   --max-queued-rows N (admission-control cap; 0 = unbounded)
 *   --no-batching (unbatched dispatch baseline)
 * plus the schedule/backend flags above (the model's schedule is the
 * registry default).
 *
 * serve also speaks the TCP wire protocol (docs/SERVING.md):
 *   --listen HOST:PORT   serve the model over a socket instead of
 *     driving load; prints "listening on HOST:PORT" (the actual port
 *     when PORT is 0) and blocks until a SHUTDOWN frame arrives, then
 *     reports whether the lock-order validator stayed silent.
 *   --connect HOST:PORT  run the closed-loop driver against a remote
 *     listener (one wire Client per thread) and print the results as
 *     one JSON document instead of text; --shutdown additionally
 *     sends a SHUTDOWN frame once the load completes.
 *
 * verify loads the model and schedule (from a schedule JSON file or
 * from schedule flags), runs every IR-level verifier after every
 * compiler pass, and prints the diagnostic report as text or, with
 * --json, as a machine-readable JSON document. Exit status 0 means no
 * errors (warnings allowed), 1 means at least one error.
 */
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "analysis/diagnostics.h"
#include "common/checked_mutex.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "model/model_stats.h"
#include "model/serialization.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "treebeard/compiler.h"
#include "tuner/auto_tuner.h"

using namespace treebeard;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: treebeard <stats|synth|compile|predict|bench|"
                 "tune|verify|serve> ... (see the file header for "
                 "details)\n");
    std::exit(2);
}

/**
 * Parse the trailing schedule + backend flags shared by several
 * subcommands. Backend flags fill @p compiler_options when given.
 */
hir::Schedule
parseSchedule(const std::vector<std::string> &args, bool *dump_ir,
              CompilerOptions *compiler_options = nullptr)
{
    hir::Schedule schedule;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const std::string & {
            fatalIf(i + 1 >= args.size(), "flag ", arg,
                    " needs a value");
            return args[++i];
        };
        if (arg == "--tile") {
            schedule.tileSize = std::stoi(next());
        } else if (arg == "--interleave") {
            schedule.interleaveFactor = std::stoi(next());
        } else if (arg == "--threads") {
            schedule.numThreads = std::stoi(next());
        } else if (arg == "--row-chunk") {
            schedule.rowChunkRows = std::stoi(next());
        } else if (arg == "--order") {
            const std::string &value = next();
            schedule.loopOrder = value == "row"
                                     ? hir::LoopOrder::kOneRowAtATime
                                     : hir::LoopOrder::kOneTreeAtATime;
        } else if (arg == "--layout") {
            const std::string &value = next();
            if (value == "array")
                schedule.layout = hir::MemoryLayout::kArray;
            else if (value == "packed")
                schedule.layout = hir::MemoryLayout::kPacked;
            else if (value == "sparse")
                schedule.layout = hir::MemoryLayout::kSparse;
            else
                fatal("--layout must be sparse, array or packed "
                      "(got \"", value, "\")");
        } else if (arg == "--tiling") {
            const std::string &value = next();
            if (value == "basic")
                schedule.tiling = hir::TilingAlgorithm::kBasic;
            else if (value == "probability")
                schedule.tiling =
                    hir::TilingAlgorithm::kProbabilityBased;
            else if (value == "hybrid")
                schedule.tiling = hir::TilingAlgorithm::kHybrid;
            else if (value == "min-max-depth")
                schedule.tiling = hir::TilingAlgorithm::kMinMaxDepth;
            else
                fatal("unknown tiling '", value, "'");
        } else if (arg == "--traversal") {
            const std::string &value = next();
            if (value == "node")
                schedule.traversal = hir::TraversalKind::kNodeParallel;
            else if (value == "row")
                schedule.traversal = hir::TraversalKind::kRowParallel;
            else
                fatal("--traversal must be node or row (got \"", value,
                      "\")");
        } else if (arg == "--packed-precision") {
            const std::string &value = next();
            if (value == "f32")
                schedule.packedPrecision = hir::PackedPrecision::kF32;
            else if (value == "i16")
                schedule.packedPrecision = hir::PackedPrecision::kI16;
            else
                fatal("--packed-precision must be f32 or i16 (got \"",
                      value, "\")");
        } else if (arg == "--no-unroll") {
            schedule.padAndUnrollWalks = false;
        } else if (arg == "--no-peel") {
            schedule.peelWalks = false;
        } else if (arg == "--backend" && compiler_options != nullptr) {
            const std::string &value = next();
            if (value == "kernel")
                compiler_options->backend = Backend::kKernel;
            else if (value == "jit")
                compiler_options->backend = Backend::kSourceJit;
            else
                fatal("--backend must be kernel or jit (got \"", value,
                      "\")");
        } else if (arg == "--jit-cache-dir" &&
                   compiler_options != nullptr) {
            compiler_options->jit.cacheDir = next();
        } else if (arg == "--jit-cache-max-bytes" &&
                   compiler_options != nullptr) {
            compiler_options->jit.cacheMaxBytes = std::stoll(next());
        } else if (arg == "--verify-each" &&
                   compiler_options != nullptr) {
            compiler_options->verifyEach = true;
        } else if (arg == "--dump-ir" && dump_ir != nullptr) {
            *dump_ir = true;
        } else {
            fatal("unknown flag '", arg, "'");
        }
    }
    // Validate at parse time so an out-of-range knob fails before any
    // model loading or compilation work, with the structured
    // hir.schedule.* diagnostics in the error text.
    schedule.validate();
    return schedule;
}

int
commandStats(const std::string &path)
{
    model::Forest forest = model::loadForest(path);
    model::ForestStats stats = model::computeForestStats(forest);
    std::printf("model: %s\n", path.c_str());
    std::printf("  features:        %d\n", stats.numFeatures);
    std::printf("  trees:           %lld\n",
                static_cast<long long>(stats.numTrees));
    std::printf("  max depth:       %d\n", stats.maxDepth);
    std::printf("  total nodes:     %lld\n",
                static_cast<long long>(stats.totalNodes));
    std::printf("  total leaves:    %lld\n",
                static_cast<long long>(stats.totalLeaves));
    std::printf("  avg leaf depth:  %.2f\n", stats.averageLeafDepth);
    std::printf("  leaf-biased:     %lld (alpha=0.075, beta=0.9)\n",
                static_cast<long long>(stats.leafBiasedTrees));
    std::printf("  objective:       %s\n",
                model::objectiveName(forest.objective()));
    return 0;
}

int
commandSynth(const std::string &name, const std::string &out_path,
             int64_t trees)
{
    data::SyntheticModelSpec spec = data::benchmarkSpecByName(name);
    if (trees > 0)
        spec.numTrees = trees;
    model::Forest forest = data::synthesizeForest(spec);
    model::saveForest(forest, out_path);
    std::printf("wrote %s: %lld trees, %d features, max depth %d\n",
                out_path.c_str(),
                static_cast<long long>(forest.numTrees()),
                forest.numFeatures(), forest.maxDepth());
    return 0;
}

int
commandCompile(const std::string &path,
               const std::vector<std::string> &flags)
{
    bool dump_ir = false;
    CompilerOptions options;
    hir::Schedule schedule = parseSchedule(flags, &dump_ir, &options);
    model::Forest forest = model::loadForest(path);

    options.recordIrDumps = dump_ir;
    codegen::JitCacheStats before = codegen::jitCacheStats();
    Timer timer;
    Session session = compile(forest, schedule, options);
    std::printf("compiled in %.3fs [backend: %s] under schedule: %s\n",
                timer.elapsedSeconds(),
                backendName(session.backend()),
                schedule.toString().c_str());
    if (session.backend() == Backend::kSourceJit) {
        codegen::JitCacheStats after = codegen::jitCacheStats();
        if (after.diskHits > before.diskHits)
            std::printf("jit: disk cache hit (no compiler invoked)\n");
        else if (after.diskStores > before.diskStores)
            std::printf("jit: compiled in %.3fs, stored to disk "
                        "cache\n",
                        session.artifacts().jitCompileSeconds);
        else
            std::printf("jit: compiled in %.3fs\n",
                        session.artifacts().jitCompileSeconds);
    }
    std::printf("%s\n", session.artifacts().lirSummary.c_str());
    for (const auto &trace : session.artifacts().passTraces) {
        std::printf("  %-22s %8.3f ms\n", trace.name.c_str(),
                    trace.seconds * 1e3);
    }
    if (dump_ir) {
        std::printf("\n%s\n%s", session.artifacts().hirDump.c_str(),
                    session.artifacts().mirDump.c_str());
    }
    return 0;
}

int
commandPredict(const std::string &model_path,
               const std::string &input_path,
               const std::string &output_path,
               const std::vector<std::string> &flags)
{
    CompilerOptions options;
    hir::Schedule schedule = parseSchedule(flags, nullptr, &options);
    model::Forest forest = model::loadForest(model_path);
    data::Dataset input =
        data::loadCsv(input_path, /*last_column_is_label=*/false);
    fatalIf(input.numFeatures() != forest.numFeatures(),
            "input has ", input.numFeatures(),
            " features but the model expects ", forest.numFeatures());

    Session session = compile(forest, schedule, options);
    int32_t num_classes = session.numClasses();
    std::vector<float> predictions(
        static_cast<size_t>(input.numRows()) *
        static_cast<size_t>(num_classes));
    session.predict(input.rows(), input.numRows(), predictions.data());

    if (output_path.empty()) {
        for (int64_t r = 0; r < input.numRows(); ++r) {
            for (int32_t c = 0; c < num_classes; ++c)
                std::printf(c == 0 ? "%.6g" : ",%.6g",
                            predictions[r * num_classes + c]);
            std::printf("\n");
        }
    } else {
        data::Dataset out(num_classes);
        for (int64_t r = 0; r < input.numRows(); ++r)
            out.appendRow(&predictions[r * num_classes]);
        data::saveCsv(out, output_path);
        std::printf("wrote %lld predictions to %s\n",
                    static_cast<long long>(input.numRows()),
                    output_path.c_str());
    }
    return 0;
}

int
commandBench(const std::string &path, int64_t batch,
             const std::vector<std::string> &flags)
{
    bool resident = false;
    std::vector<std::string> schedule_flags;
    for (const std::string &arg : flags) {
        if (arg == "--resident")
            resident = true;
        else
            schedule_flags.push_back(arg);
    }
    CompilerOptions options;
    hir::Schedule schedule =
        parseSchedule(schedule_flags, nullptr, &options);
    model::Forest forest = model::loadForest(path);
    Session session = compile(forest, schedule, options);

    // A synthetic uniform batch sized to the model.
    data::SyntheticModelSpec spec;
    spec.name = "cli-bench";
    spec.numFeatures = forest.numFeatures();
    spec.numTrees = 1;
    spec.maxDepth = 1;
    data::Dataset rows = data::generateFeatures(spec, batch);
    std::vector<float> predictions(
        static_cast<size_t>(batch) *
        static_cast<size_t>(session.numClasses()));

    treebeard::Dataset bound;
    double bind_seconds = 0.0;
    if (resident) {
        Timer bind_timer;
        bound = session.bindDataset(rows.rows(), batch);
        bind_seconds = bind_timer.elapsedSeconds();
    }
    auto run_once = [&]() {
        if (resident)
            session.predictDataset(bound, predictions.data());
        else
            session.predict(rows.rows(), batch, predictions.data());
    };
    run_once(); // warm-up
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        Timer timer;
        run_once();
        best = std::min(best, timer.elapsedSeconds());
    }
    std::printf("%s [backend: %s]%s\n", schedule.toString().c_str(),
                backendName(session.backend()),
                resident ? " [resident dataset]" : "");
    if (resident) {
        std::printf("bind: %.3f ms (quantized image: %s)\n",
                    bind_seconds * 1e3,
                    bound.hasQuantizedImage() ? "yes" : "no");
    }
    std::printf("batch %lld: %.3f ms total, %.3f us/row\n",
                static_cast<long long>(batch), best * 1e3,
                best * 1e6 / static_cast<double>(batch));
    return 0;
}

/**
 * Static verification without execution: load the model and schedule,
 * run the full compilation pipeline with after-every-pass
 * verification, and print every diagnostic collected along the way.
 * Loading failures are folded into the same report, so a corrupt
 * model file yields its structured model.* diagnostics rather than a
 * bare error message.
 */
int
commandVerify(const std::string &model_path,
              const std::string &schedule_path,
              const std::vector<std::string> &flags)
{
    bool json_report = false;
    std::vector<std::string> schedule_flags;
    for (const std::string &arg : flags) {
        if (arg == "--json")
            json_report = true;
        else
            schedule_flags.push_back(arg);
    }

    analysis::DiagnosticEngine report;
    std::optional<model::Forest> forest;
    try {
        forest = model::loadForest(model_path);
    } catch (const analysis::VerificationError &error) {
        for (const analysis::Diagnostic &d : error.diagnostics())
            report.add(d);
    }

    CompilerOptions options;
    std::optional<hir::Schedule> schedule;
    try {
        if (!schedule_path.empty()) {
            schedule = hir::scheduleFromJsonString(
                readFileToString(schedule_path));
        } else {
            schedule = parseSchedule(schedule_flags, nullptr, &options);
            schedule->validate();
        }
    } catch (const analysis::VerificationError &error) {
        for (const analysis::Diagnostic &d : error.diagnostics())
            report.add(d);
    }

    if (forest.has_value() && schedule.has_value()) {
        options.verifyEach = true;
        try {
            Session session = compile(*forest, *schedule, options);
            for (const analysis::Diagnostic &d :
                 session.artifacts().diagnostics)
                report.add(d);
        } catch (const analysis::VerificationError &error) {
            for (const analysis::Diagnostic &d : error.diagnostics())
                report.add(d);
        }
    }

    if (json_report) {
        std::printf("%s\n", report.toJson().dumpPretty().c_str());
    } else if (report.empty()) {
        std::printf("ok: %s verifies cleanly under schedule: %s\n",
                    model_path.c_str(),
                    schedule.has_value()
                        ? schedule->toString().c_str()
                        : "(invalid)");
    } else {
        std::printf("%s", report.toString().c_str());
        std::printf("%lld error(s), %lld warning(s)\n",
                    static_cast<long long>(report.errorCount()),
                    static_cast<long long>(report.warningCount()));
    }
    return report.hasErrors() ? 1 : 0;
}

/**
 * The closed-loop load driver behind `treebeard serve`: client
 * threads issue requests back-to-back against the in-process Server
 * and the driver reports request-latency percentiles, throughput and
 * the batching counters. Closed-loop means offered load scales with
 * --clients: each client has exactly one request outstanding, the
 * standard service-benchmark shape for finding the batching knee.
 */
int
commandServe(const std::string &model_path,
             const std::vector<std::string> &flags)
{
    int64_t clients = 8;
    int64_t requests_per_client = 200;
    int64_t rows_per_request = 1;
    std::string listen_spec;
    std::string connect_spec;
    bool send_shutdown = false;
    serve::ServerOptions server_options;
    std::vector<std::string> schedule_flags;
    for (size_t i = 0; i < flags.size(); ++i) {
        const std::string &arg = flags[i];
        auto next = [&]() -> const std::string & {
            fatalIf(i + 1 >= flags.size(), "flag ", arg,
                    " needs a value");
            return flags[++i];
        };
        if (arg == "--clients")
            clients = std::stoll(next());
        else if (arg == "--requests")
            requests_per_client = std::stoll(next());
        else if (arg == "--rows")
            rows_per_request = std::stoll(next());
        else if (arg == "--listen")
            listen_spec = next();
        else if (arg == "--connect")
            connect_spec = next();
        else if (arg == "--shutdown")
            send_shutdown = true;
        else if (arg == "--max-batch-rows")
            server_options.batcher.maxBatchRows = std::stoll(next());
        else if (arg == "--max-delay-us")
            server_options.batcher.maxQueueDelayMicros =
                std::stoll(next());
        else if (arg == "--max-queued-rows")
            server_options.batcher.maxQueuedRows = std::stoll(next());
        else if (arg == "--no-batching")
            server_options.batcher.enabled = false;
        else
            schedule_flags.push_back(arg);
    }
    fatalIf(clients < 1, "--clients must be >= 1");
    fatalIf(requests_per_client < 1, "--requests must be >= 1");
    fatalIf(rows_per_request < 1, "--rows must be >= 1");
    fatalIf(!listen_spec.empty() && !connect_spec.empty(),
            "--listen and --connect are mutually exclusive");
    fatalIf(send_shutdown && connect_spec.empty(),
            "--shutdown only applies with --connect");

    CompilerOptions compiler_options;
    hir::Schedule schedule =
        parseSchedule(schedule_flags, nullptr, &compiler_options);
    server_options.registry.compiler = compiler_options;
    server_options.registry.defaultSchedule = schedule;

    model::Forest forest = model::loadForest(model_path);

    if (!listen_spec.empty()) {
        // Server mode: expose the model over the TCP wire protocol
        // and block until a SHUTDOWN frame arrives. The lock-order
        // validator runs for the whole serving lifetime so the exit
        // status doubles as a concurrency check in CI.
        std::string host;
        uint16_t port = 0;
        serve::splitHostPort(listen_spec, &host, &port);
        setLockChecking(true);
        serve::Server server(server_options);
        Timer load_timer;
        serve::ModelHandle handle = server.loadModel(forest);
        std::printf("serving %s as %s [backend: %s, %s]\n",
                    model_path.c_str(), handle.c_str(),
                    backendName(compiler_options.backend),
                    server_options.batcher.enabled
                        ? "dynamic batching"
                        : "unbatched dispatch");
        std::printf("model loaded in %.3f s under schedule: %s\n",
                    load_timer.elapsedSeconds(),
                    schedule.toString().c_str());
        serve::TransportOptions transport;
        transport.host = host;
        transport.port = port;
        serve::WireServer wire_server(server, transport);
        std::printf("listening on %s:%u\n", host.c_str(),
                    static_cast<unsigned>(wire_server.port()));
        std::fflush(stdout);
        wire_server.waitUntilStopRequested();
        wire_server.stop();
        serve::TransportStats wire_stats = wire_server.stats();
        server.shutdown();
        long long violations =
            static_cast<long long>(lockViolationCount());
        std::printf("served %lld frames on %lld connections "
                    "(%lld protocol errors, %lld disconnects)\n",
                    static_cast<long long>(wire_stats.framesServed),
                    static_cast<long long>(
                        wire_stats.connectionsAccepted),
                    static_cast<long long>(wire_stats.protocolErrors),
                    static_cast<long long>(wire_stats.disconnects));
        std::printf("shutdown: clean (%lld lock violations)\n",
                    violations);
        return violations == 0 ? 0 : 1;
    }

    if (!connect_spec.empty()) {
        // Driver mode: the same closed-loop load, but over the wire
        // against a remote listener, one Client per thread. Output is
        // a single JSON document so scripts consume it directly.
        std::string host;
        uint16_t port = 0;
        serve::splitHostPort(connect_spec, &host, &port);
        serve::Client setup(host, port);
        serve::ModelHandle handle = setup.loadModel(forest, schedule);
        const int32_t features = forest.numFeatures();

        data::SyntheticModelSpec spec;
        spec.name = "cli-serve";
        spec.numFeatures = features;
        spec.numTrees = 1;
        spec.maxDepth = 1;
        const int64_t pool_rows = 256;
        fatalIf(rows_per_request > pool_rows, "--rows must be <= ",
                pool_rows);
        std::vector<data::Dataset> pools;
        for (int64_t c = 0; c < clients; ++c) {
            pools.push_back(data::generateFeatures(
                spec, pool_rows, /*seed_offset=*/1000 + c));
        }

        std::vector<std::vector<double>> latencies(
            static_cast<size_t>(clients));
        std::atomic<int64_t> rejected{0};
        Timer wall;
        std::vector<std::thread> threads;
        for (int64_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                serve::Client client(host, port);
                std::vector<double> &lat =
                    latencies[static_cast<size_t>(c)];
                lat.reserve(static_cast<size_t>(requests_per_client));
                const float *pool =
                    pools[static_cast<size_t>(c)].rows();
                for (int64_t r = 0; r < requests_per_client; ++r) {
                    int64_t start =
                        (r * rows_per_request) %
                        (pool_rows - rows_per_request + 1);
                    const float *rows = pool + start * features;
                    Timer timer;
                    try {
                        client.predict(handle, rows,
                                       rows_per_request, features);
                    } catch (const Error &error) {
                        if (error.code() == serve::kErrQueueFull) {
                            rejected.fetch_add(1);
                            continue;
                        }
                        throw;
                    }
                    lat.push_back(timer.elapsedMicros());
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        double wall_seconds = wall.elapsedSeconds();

        std::vector<double> all;
        for (const std::vector<double> &lat : latencies)
            all.insert(all.end(), lat.begin(), lat.end());
        fatalIf(all.empty(), "every request was rejected; raise "
                "--max-queued-rows or lower --clients");
        std::sort(all.begin(), all.end());
        auto percentile = [&](double p) {
            size_t index = static_cast<size_t>(
                p * static_cast<double>(all.size() - 1));
            return all[index];
        };
        int64_t completed = static_cast<int64_t>(all.size());

        if (send_shutdown)
            setup.shutdownServer();

        JsonValue::Object doc;
        doc["handle"] = handle;
        doc["clients"] = clients;
        doc["requests_per_client"] = requests_per_client;
        doc["rows_per_request"] = rows_per_request;
        doc["completed"] = completed;
        doc["rejected"] = rejected.load();
        doc["p50_us"] = percentile(0.50);
        doc["p95_us"] = percentile(0.95);
        doc["p99_us"] = percentile(0.99);
        doc["rows_per_sec"] =
            static_cast<double>(completed * rows_per_request) /
            wall_seconds;
        doc["wall_seconds"] = wall_seconds;
        std::printf("%s\n", JsonValue(std::move(doc)).dump().c_str());
        return 0;
    }

    serve::Server server(server_options);
    Timer load_timer;
    serve::ModelHandle handle = server.loadModel(forest);
    std::printf("serving %s as %s [backend: %s, %s]\n",
                model_path.c_str(), handle.c_str(),
                backendName(compiler_options.backend),
                server_options.batcher.enabled
                    ? "dynamic batching"
                    : "unbatched dispatch");
    std::printf("model loaded in %.3f s under schedule: %s\n",
                load_timer.elapsedSeconds(),
                schedule.toString().c_str());

    // Per-client request pools drawn from the model's input
    // distribution; each client cycles its own rows.
    data::SyntheticModelSpec spec;
    spec.name = "cli-serve";
    spec.numFeatures = forest.numFeatures();
    spec.numTrees = 1;
    spec.maxDepth = 1;
    const int64_t pool_rows = 256;
    std::vector<data::Dataset> pools;
    for (int64_t c = 0; c < clients; ++c) {
        pools.push_back(data::generateFeatures(
            spec, pool_rows, /*seed_offset=*/1000 + c));
    }

    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    std::atomic<int64_t> rejected{0};
    Timer wall;
    std::vector<std::thread> threads;
    for (int64_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<double> &lat =
                latencies[static_cast<size_t>(c)];
            lat.reserve(static_cast<size_t>(requests_per_client));
            const float *pool = pools[static_cast<size_t>(c)].rows();
            for (int64_t r = 0; r < requests_per_client; ++r) {
                int64_t start =
                    (r * rows_per_request) % (pool_rows -
                                              rows_per_request + 1);
                const float *rows =
                    pool + start * forest.numFeatures();
                Timer timer;
                try {
                    server.predict(handle, rows, rows_per_request);
                } catch (const Error &error) {
                    if (error.code() == serve::kErrQueueFull) {
                        rejected.fetch_add(1);
                        continue;
                    }
                    throw;
                }
                lat.push_back(timer.elapsedMicros());
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    double wall_seconds = wall.elapsedSeconds();

    std::vector<double> all;
    for (const std::vector<double> &lat : latencies)
        all.insert(all.end(), lat.begin(), lat.end());
    fatalIf(all.empty(), "every request was rejected; raise "
            "--max-queued-rows or lower --clients");
    std::sort(all.begin(), all.end());
    auto percentile = [&](double p) {
        size_t index = static_cast<size_t>(
            p * static_cast<double>(all.size() - 1));
        return all[index];
    };
    int64_t completed = static_cast<int64_t>(all.size());
    double rows_per_sec = static_cast<double>(
                              completed * rows_per_request) /
                          wall_seconds;

    serve::BatcherStats batching = server.batcherStats(handle);
    std::printf("\nclosed-loop load: %lld clients x %lld requests x "
                "%lld row(s)\n",
                static_cast<long long>(clients),
                static_cast<long long>(requests_per_client),
                static_cast<long long>(rows_per_request));
    std::printf("  completed:  %lld (%lld rejected by admission)\n",
                static_cast<long long>(completed),
                static_cast<long long>(rejected.load()));
    std::printf("  latency:    p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
                percentile(0.50), percentile(0.95), percentile(0.99));
    std::printf("  throughput: %.0f rows/sec (%.3f s wall)\n",
                rows_per_sec, wall_seconds);
    std::printf("  batching:   %lld batches, %.1f rows/batch avg, "
                "%lld max, %lld coalesced, %lld size flushes, "
                "%lld deadline flushes\n",
                static_cast<long long>(batching.batchesExecuted),
                batching.averageBatchRows(),
                static_cast<long long>(batching.largestBatchRows),
                static_cast<long long>(batching.coalescedBatches),
                static_cast<long long>(batching.sizeFlushes),
                static_cast<long long>(batching.deadlineFlushes));
    server.shutdown();
    return 0;
}

int
commandTune(const std::string &path, int64_t sample_rows,
            const std::vector<std::string> &flags)
{
    tuner::TunerOptions options;
    options.repetitions = 2;
    std::string db_path;
    for (size_t i = 0; i < flags.size(); ++i) {
        const std::string &arg = flags[i];
        auto next = [&]() -> const std::string & {
            fatalIf(i + 1 >= flags.size(), "flag ", arg,
                    " needs a value");
            return flags[++i];
        };
        if (arg == "--backend") {
            const std::string &value = next();
            if (value == "kernel")
                options.backends = {Backend::kKernel};
            else if (value == "jit")
                options.backends = {Backend::kSourceJit};
            else if (value == "both")
                options.backends = {Backend::kKernel,
                                    Backend::kSourceJit};
            else
                fatal("--backend must be kernel, jit or both "
                      "(got \"", value, "\")");
        } else if (arg == "--jit-cache-dir") {
            options.jitCacheDir = next();
        } else if (arg == "--jit-cache-max-bytes") {
            options.jitCacheMaxBytes = std::stoll(next());
        } else if (arg == "--db") {
            db_path = next();
        } else {
            fatal("unknown flag '", arg, "'");
        }
    }

    model::Forest forest = model::loadForest(path);
    data::SyntheticModelSpec spec;
    spec.name = "cli-tune";
    spec.numFeatures = forest.numFeatures();
    spec.numTrees = 1;
    spec.maxDepth = 1;
    data::Dataset sample = data::generateFeatures(spec, sample_rows);

    std::printf("exploring %zu configurations x %zu backends on %lld "
                "sample rows\n",
                tuner::enumerateSchedules(options).size(),
                options.backends.size(),
                static_cast<long long>(sample_rows));
    tuner::TunerResult result = tuner::exploreSchedules(
        forest, sample.rows(), sample_rows, options);
    std::printf("best: %s [backend: %s] (%.3f us/row)\n",
                result.best.schedule.toString().c_str(),
                backendName(result.best.backend),
                result.best.seconds * 1e6 /
                    static_cast<double>(sample_rows));
    if (!db_path.empty()) {
        tuner::appendTuningRecord(db_path, forest, result);
        std::printf("appended tuning record to %s\n",
                    db_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    try {
        if (command == "stats" && args.size() == 1)
            return commandStats(args[0]);
        if (command == "synth" && (args.size() == 2 || args.size() == 3))
            return commandSynth(args[0], args[1],
                                args.size() == 3 ? std::stoll(args[2])
                                                 : 0);
        if (command == "compile" && !args.empty()) {
            return commandCompile(
                args[0], {args.begin() + 1, args.end()});
        }
        if (command == "predict" && args.size() >= 2) {
            std::string output;
            std::vector<std::string> flags(args.begin() + 2,
                                           args.end());
            if (!flags.empty() && flags[0].rfind("--", 0) != 0) {
                output = flags[0];
                flags.erase(flags.begin());
            }
            return commandPredict(args[0], args[1], output, flags);
        }
        if (command == "bench" && !args.empty()) {
            int64_t batch = 1024;
            std::vector<std::string> flags(args.begin() + 1,
                                           args.end());
            if (!flags.empty() && flags[0].rfind("--", 0) != 0) {
                batch = std::stoll(flags[0]);
                flags.erase(flags.begin());
            }
            return commandBench(args[0], batch, flags);
        }
        if (command == "verify" && !args.empty()) {
            std::string schedule_path;
            std::vector<std::string> flags(args.begin() + 1,
                                           args.end());
            if (!flags.empty() && flags[0].rfind("--", 0) != 0) {
                schedule_path = flags[0];
                flags.erase(flags.begin());
            }
            return commandVerify(args[0], schedule_path, flags);
        }
        if (command == "serve" && !args.empty()) {
            return commandServe(args[0],
                                {args.begin() + 1, args.end()});
        }
        if (command == "tune" && !args.empty()) {
            int64_t sample = 512;
            std::vector<std::string> flags(args.begin() + 1,
                                           args.end());
            if (!flags.empty() && flags[0].rfind("--", 0) != 0) {
                sample = std::stoll(flags[0]);
                flags.erase(flags.begin());
            }
            return commandTune(args[0], sample, flags);
        }
    } catch (const Error &error) {
        std::fprintf(stderr, "treebeard: %s\n", error.what());
        return 1;
    }
    usage();
}
