/**
 * @file
 * online-open: an open loop of seeded Poisson arrivals of single-row
 * higgs PREDICTs at a fixed rate well below saturation, driven through
 * serve::Server, a loopback serve::WireServer on an ephemeral port,
 * and one serve::Client per sender thread. The walk is a few
 * microseconds, so the wire and the batcher's wait dominate.
 *
 * Every response is compared bit for bit with a direct
 * Session::predict of the same row.
 */
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "harness.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace perfbench {

namespace {

using namespace treebeard;

constexpr const char *kModel = "higgs";
/** Sender threads, each with its own connection; no more than the
 * four cores of the reference host, so the generator does not
 * oversubscribe it. */
constexpr int kSenders = 4;
/** Input rows that requests draw from. */
constexpr int64_t kPoolRows = 4096;
/** Set-up repeats until both minimums are met; setup_s is their
 * median. */
constexpr int kMinSetupRepeats = 5;
constexpr double kMinSetupSeconds = 3.0;
/** Time windows of the measured phase; each figure is the median of
 * its per-window values. */
constexpr int kWindows = 5;
/**
 * The percentile tail_us reports. Not p99 or p90: depending on host
 * load over minutes, a share of requests on a shared 4-vCPU host meets
 * multi-millisecond vCPU stalls, and the queue a stall leaves behind
 * in the open loop delays the requests after it, so those percentiles
 * of a ~1 ms request measure the host rather than the program.
 */
constexpr double kTailQuantile = 0.75;
constexpr double kWarmupSeconds = 1.0;
/** Arrival rate (single-row requests per second). */
constexpr double kOpenRate = 1000.0;
/** Latency recorded for a failed request: it misses any limit. */
constexpr double kFailedLatencyUs = 1e12;
/** Requests whose payloads wire.codec_us encodes and decodes. */
constexpr size_t kCodecRequests = 2000;

struct Model
{
    data::SyntheticModelSpec spec;
    model::Forest forest;
    std::vector<float> pool;
    /** Direct Session::predict outputs for every pool row. */
    std::vector<float> expected;
    std::unique_ptr<Session> direct;
    serve::ModelHandle handle;
    int32_t features = 0;
    int32_t classes = 0;
};

struct Request
{
    uint64_t id = 0;
    int64_t offset = 0;
    /** Due time relative to the start of the schedule. */
    int64_t dueNs = 0;
};

struct Outcome
{
    uint64_t id = 0;
    int64_t dueNs = 0;
    int64_t sentNs = 0;
    int64_t doneNs = 0;
    bool ok = false;
};

/** The layer boundary a replay calls into. */
enum class Boundary { kSession, kServer, kWire };

const char *
spanName(Boundary boundary)
{
    switch (boundary) {
    case Boundary::kSession:
        return "runtime.session";
    case Boundary::kServer:
        return "serve.server";
    case Boundary::kWire:
        return "wire.client";
    }
    return "";
}

/** Members stop in reverse order: the listener before the server. */
struct Stack
{
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::WireServer> wire;
};

Model
makeModel(uint64_t seed, Tracer *tracer,
          std::map<std::string, double> &layer_seconds)
{
    Model m;
    m.spec = data::benchmarkSpecByName(kModel);
    m.forest = data::synthesizeForest(m.spec);
    m.features = m.forest.numFeatures();
    m.classes = m.forest.numClasses();
    data::Dataset input = data::generateFeatures(m.spec, kPoolRows, seed);
    m.pool.assign(input.rows(), input.rows() + kPoolRows * m.features);
    int64_t start = nowNs();
    m.direct =
        std::make_unique<Session>(compile(m.forest, optimizedSchedule()));
    int64_t end = nowNs();
    if (tracer != nullptr) {
        recordCompile(*tracer, 0, start, end, m.direct->artifacts(),
                      layer_seconds);
    }
    m.expected.resize(static_cast<size_t>(kPoolRows * m.classes));
    m.direct->predict(m.pool.data(), kPoolRows, m.expected.data());
    return m;
}

/**
 * The timed set-up: a Server, the loadModel, and the WireServer
 * start. Returns its wall seconds.
 */
double
startStack(Model &m, Stack &stack, Tracer *tracer,
           std::map<std::string, double> &layer_seconds)
{
    stack.wire.reset();
    stack.server.reset();
    int64_t start = nowNs();
    stack.server = std::make_unique<serve::Server>();
    int64_t load_start = nowNs();
    m.handle = stack.server->loadModel(m.forest, optimizedSchedule());
    int64_t listen_start = nowNs();
    stack.wire = std::make_unique<serve::WireServer>(*stack.server);
    int64_t end = nowNs();
    if (tracer != nullptr) {
        size_t parent = tracer->add("serve.setup", 0, start, end);
        tracer->add("registry.load", 0, load_start, listen_start,
                    parent + 1);
        tracer->add("transport.start", 0, listen_start, end, parent + 1);
        layer_seconds["registry.load"] +=
            static_cast<double>(listen_start - load_start) / 1e9;
    }
    return static_cast<double>(end - start) / 1e9;
}

/**
 * Send @p request through @p boundary and compare the answer with the
 * direct Session::predict outputs; false on an error or mismatch.
 */
bool
sendOne(Boundary boundary, Model &m, Stack &stack, serve::Client &client,
        const Request &request)
{
    const float *row = m.pool.data() + request.offset * m.features;
    auto count = static_cast<size_t>(m.classes);
    std::vector<float> out;
    try {
        switch (boundary) {
        case Boundary::kSession:
            out.resize(count);
            m.direct->predict(row, 1, out.data());
            break;
        case Boundary::kServer:
            out = stack.server->predict(m.handle, row, 1);
            break;
        case Boundary::kWire:
            out = client.predict(m.handle, row, 1, m.features);
            break;
        }
    } catch (const std::exception &error) {
        std::cerr << "perfbench: request " << request.id
                  << " failed: " << error.what() << "\n";
        return false;
    }
    return out.size() == count &&
           std::memcmp(out.data(),
                       m.expected.data() + request.offset * m.classes,
                       count * sizeof(float)) == 0;
}

using SendFn = std::function<bool(int sender, const Request &)>;

/**
 * Each request goes out at its due time on the first free sender,
 * whether or not earlier requests have completed.
 */
std::vector<Outcome>
driveOpen(const std::vector<Request> &requests, int64_t base_ns,
          const SendFn &send)
{
    std::vector<Outcome> outcomes(requests.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSenders; ++s) {
        threads.emplace_back([&, s] {
            // Wake at the due time, not up to 50 us after it.
            prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            for (size_t i = next++; i < requests.size(); i = next++) {
                const Request &r = requests[i];
                int64_t due = base_ns + r.dueNs;
                std::this_thread::sleep_until(
                    Clock::time_point(std::chrono::nanoseconds(due)));
                Outcome &o = outcomes[i];
                o.id = r.id;
                o.dueNs = due;
                o.sentNs = nowNs();
                o.ok = send(s, r);
                o.doneNs = nowNs();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    return outcomes;
}

/** Latency from the due time, so it includes any generator stall. */
double
latencyUs(const Outcome &o)
{
    return o.ok ? static_cast<double>(o.doneNs - o.dueNs) / 1e3
                : kFailedLatencyUs;
}

/**
 * End-to-end figures over the requests due in [begin, end): per-window
 * median and tail latency and completed rows per second, each the
 * median over the windows.
 */
void
reportEndToEnd(const std::vector<Outcome> &outcomes, int64_t begin,
               int64_t end, double setup_s, Result &result)
{
    std::vector<std::pair<int64_t, double>> latency, rows;
    std::vector<double> late;
    for (const Outcome &o : outcomes) {
        if (o.dueNs >= begin && o.dueNs < end)
            late.push_back(static_cast<double>(o.sentNs - o.dueNs) / 1e3);
        latency.emplace_back(o.dueNs, latencyUs(o));
        rows.emplace_back(o.dueNs, o.ok ? 1.0 : 0.0);
    }
    double window_s = static_cast<double>(end - begin) / 1e9 / kWindows;
    std::vector<double> p50, tail, rate;
    for (const std::vector<double> &window :
         splitWindows(latency, begin, end, kWindows)) {
        if (static_cast<double>(window.size()) * (1 - kTailQuantile) < 10) {
            std::cerr << "perfbench: warning: a window holds "
                      << window.size() << " requests, under 10 beyond p"
                      << kTailQuantile * 100 << "\n";
        }
        p50.push_back(median(window));
        tail.push_back(percentile(window, kTailQuantile));
    }
    for (const std::vector<double> &window :
         splitWindows(rows, begin, end, kWindows)) {
        double total = 0.0;
        for (double r : window)
            total += r;
        rate.push_back(total / window_s);
    }
    std::cerr << "perfbench: sender late p50 " << median(late)
              << " us, p99 " << percentile(late, 0.99) << " us\n";
    result.set("setup_s", setup_s, "s");
    result.set("rows_per_s", median(rate), "rows/s");
    result.set("latency_us", median(p50), "us");
    result.set("tail_us", median(tail), "us");
    result.set("peak_rss_mb", peakRssMb(), "MiB");
}

void
countOutcomes(const std::vector<Outcome> &outcomes, Result &result)
{
    for (const Outcome &o : outcomes) {
        result.attempted += 1;
        if (!o.ok)
            result.failed += 1;
    }
}

std::vector<Request>
poissonSchedule(uint64_t seed, double seconds)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(kOpenRate);
    std::uniform_int_distribution<int64_t> offset(0, kPoolRows - 1);
    std::vector<Request> schedule;
    double t = 0.0;
    for (uint64_t id = 0;; ++id) {
        t += gap(rng);
        if (t >= seconds)
            break;
        Request r;
        r.id = id;
        r.offset = offset(rng);
        r.dueNs = static_cast<int64_t>(t * 1e9);
        schedule.push_back(r);
    }
    return schedule;
}

/**
 * Replay the schedule's first warm-up + @p seconds through @p send.
 * Returns the outcomes and the measured window [begin, end) of due
 * times, which excludes the warm-up.
 */
std::vector<Outcome>
drive(const std::vector<Request> &schedule, double seconds,
      const SendFn &send, int64_t *begin, int64_t *end)
{
    std::vector<Request> requests;
    auto limit = static_cast<int64_t>((kWarmupSeconds + seconds) * 1e9);
    for (const Request &r : schedule) {
        if (r.dueNs < limit)
            requests.push_back(r);
    }
    int64_t base = nowNs() + 1000000;
    *begin = base + static_cast<int64_t>(kWarmupSeconds * 1e9);
    *end = base + limit;
    return driveOpen(requests, base, send);
}

/** wire.codec_us: the public codec on each request's payloads. */
double
codecMicros(const Model &m, const std::vector<Request> &requests,
            Result &result)
{
    std::vector<double> us;
    for (const Request &r : requests) {
        std::vector<float> answer(
            m.expected.begin() + r.offset * m.classes,
            m.expected.begin() + (r.offset + 1) * m.classes);
        std::string handle;
        uint32_t rows = 0;
        std::vector<float> values, decoded;
        int64_t start = nowNs();
        std::string request = serve::wire::encodePredictPayload(
            m.handle, m.pool.data() + r.offset * m.features, 1,
            m.features);
        bool ok = serve::wire::decodePredictPayload(request, &handle, &rows,
                                                    &values);
        std::string response = serve::wire::encodeFloatPayload(answer);
        ok = serve::wire::decodeFloatPayload(response, &decoded) && ok;
        int64_t end = nowNs();
        if (!ok || decoded != answer || rows != 1)
            result.fail("wire codec round trip changed a payload");
        us.push_back(static_cast<double>(end - start) / 1e3);
    }
    return median(us);
}

/**
 * runtime.session_us_per_row and runtime.batch_us.<model>: direct
 * Session::predict at the batcher's observed average batch size.
 */
void
sessionAtBatchSize(const Model &m, const serve::BatcherStats &batches,
                   Result &result)
{
    int64_t rows = std::clamp<int64_t>(
        std::llround(batches.averageBatchRows()), 1, kPoolRows);
    std::vector<float> out(static_cast<size_t>(rows * m.classes));
    std::vector<double> us;
    for (int rep = 0; rep < 2000; ++rep) {
        int64_t offset = (rep * 97) % (kPoolRows - rows + 1);
        int64_t start = nowNs();
        m.direct->predict(m.pool.data() + offset * m.features, rows,
                          out.data());
        us.push_back(static_cast<double>(nowNs() - start) / 1e3);
    }
    double batch_us = median(us);
    result.set("runtime.batch_us." + m.spec.name, batch_us, "us");
    result.set("runtime.session_us_per_row",
               batch_us / static_cast<double>(rows), "us");
}

} // namespace

void
runOnlineOpen(const Args &args, Result &result)
{
    Tracer tracer;
    std::map<std::string, double> layer_seconds;
    Model m = makeModel(args.seed, args.trace ? &tracer : nullptr,
                        layer_seconds);
    std::vector<Request> schedule =
        poissonSchedule(args.seed, kWarmupSeconds + args.seconds);

    Stack stack;
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.empty() ||
           (!args.trace && (setups.size() < kMinSetupRepeats ||
                            setup_total < kMinSetupSeconds))) {
        setups.push_back(startStack(m, stack,
                                    args.trace ? &tracer : nullptr,
                                    layer_seconds));
        setup_total += setups.back();
        std::cerr << "perfbench: set-up " << setups.back() << " s\n";
    }

    std::vector<std::unique_ptr<serve::Client>> clients;
    for (int s = 0; s < kSenders; ++s) {
        clients.push_back(std::make_unique<serve::Client>(
            stack.wire->host(), stack.wire->port()));
    }
    auto sender = [&](Boundary boundary) -> SendFn {
        return [&, boundary](int s, const Request &r) {
            return sendOne(boundary, m, stack, *clients[s], r);
        };
    };

    int64_t begin = 0, end = 0;
    if (!args.trace) {
        std::vector<Outcome> outcomes = drive(
            schedule, args.seconds, sender(Boundary::kWire), &begin, &end);
        countOutcomes(outcomes, result);
        reportEndToEnd(outcomes, begin, end, median(setups), result);
        clients.clear();
        return;
    }

    // Traced run: replay the stream at each layer boundary in turn;
    // odd request ids record spans and even ones do not, so the gap
    // between the two halves is the tracing overhead.
    std::vector<Outcome> wire_outcomes;
    serve::BatcherStats wire_batches;
    for (Boundary boundary :
         {Boundary::kSession, Boundary::kServer, Boundary::kWire}) {
        SendFn send = sender(boundary);
        SendFn traced = [&, boundary, send](int s, const Request &r) {
            int64_t start = nowNs();
            bool ok = send(s, r);
            if (r.id % 2 == 1)
                tracer.add(spanName(boundary), r.id, start, nowNs());
            return ok;
        };
        serve::BatcherStats before = stack.server->batcherStats(m.handle);
        std::vector<Outcome> outcomes =
            drive(schedule, args.seconds / 3, traced, &begin, &end);
        countOutcomes(outcomes, result);
        if (boundary != Boundary::kWire)
            continue;
        wire_batches = stack.server->batcherStats(m.handle);
        wire_batches.requestsRejected -= before.requestsRejected;
        wire_batches.batchesExecuted -= before.batchesExecuted;
        wire_batches.rowsExecuted -= before.rowsExecuted;
        wire_batches.sizeFlushes -= before.sizeFlushes;
        wire_batches.deadlineFlushes -= before.deadlineFlushes;
        for (const Outcome &o : outcomes) {
            if (o.dueNs >= begin)
                wire_outcomes.push_back(o);
        }
    }

    double batches = static_cast<double>(
        std::max<int64_t>(1, wire_batches.batchesExecuted));
    double session_us = median(tracer.durationsUs("runtime.session"));
    double server_us = median(tracer.durationsUs("serve.server"));
    double wire_us = median(tracer.durationsUs("wire.client"));
    result.set("batcher.queue_us", server_us - session_us, "us");
    result.set("batcher.avg_batch_rows", wire_batches.averageBatchRows(),
               "rows");
    result.set("batcher.deadline_flush_frac",
               static_cast<double>(wire_batches.deadlineFlushes) / batches,
               "ratio");
    result.set("batcher.size_flush_frac",
               static_cast<double>(wire_batches.sizeFlushes) / batches,
               "ratio");
    result.set("batcher.rejected",
               static_cast<double>(wire_batches.requestsRejected), "count");
    if (wire_batches.requestsRejected != 0)
        result.fail("the batcher rejected requests");
    result.set("wire.rtt_us", wire_us, "us");
    result.set("wire.tax_us", wire_us - server_us, "us");
    serve::TransportStats transport = stack.wire->stats();
    result.set("transport.protocol_errors",
               static_cast<double>(transport.protocolErrors), "count");
    if (transport.protocolErrors != 0)
        result.fail("the transport counted protocol errors");

    std::vector<double> late, traced_us, untraced_us;
    for (const Outcome &o : wire_outcomes) {
        late.push_back(static_cast<double>(o.sentNs - o.dueNs) / 1e3);
        (o.id % 2 == 1 ? traced_us : untraced_us).push_back(latencyUs(o));
    }
    result.set("loadgen.late_us", percentile(late, 0.99), "us");
    result.set("trace.latency_us", median(traced_us), "us");
    result.set("trace.overhead_pct",
               (median(traced_us) / median(untraced_us) - 1) * 100, "%");
    clients.clear();

    std::vector<Request> codec_requests(
        schedule.begin(),
        schedule.begin() + static_cast<std::ptrdiff_t>(std::min(
                               schedule.size(), kCodecRequests)));
    result.set("wire.codec_us", codecMicros(m, codec_requests, result),
               "us");
    sessionAtBatchSize(m, wire_batches, result);

    std::map<std::string, Metric> counts = walkCounts(m.spec, m.forest);
    if (walkCounts(m.spec, m.forest) != counts)
        result.fail(m.spec.name + ": walk counts differ between two "
                                  "instrumented runs");
    reportCounts(args, counts, result);
    reportCompileLayers(layer_seconds, result);
    result.set("registry.load_s", layer_seconds["registry.load"], "s");
    tracer.write(args.outDir + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json");
}

} // namespace perfbench
