/**
 * @file
 * Figure-sweep workloads (fig4_64p, fig6_ring_bus).
 *
 * A user asks an in-process ServiceCore for the figure the way
 * `bench/<figure> --service` asks ringsim_serve (bench/common.cpp,
 * runFigure): one sweep request per figure, waiting for the answer,
 * which service::executeJob computes with figures::renderFigure on
 * `threads` sweep workers. The first timed sweep of every run uses a
 * seed whose digest is recorded, the rest use seeds derived from
 * --seed.
 *
 * The traced run computes the recorded-seed sweep the same way, then
 * replays it layer by layer (replayFigure) with spans off and on, and
 * runs the serving probe against a two-worker fleet, so every
 * per-layer metric has a measured value.
 */

#include <barrier>
#include <thread>

#include "fleet_process.hpp"
#include "harness.hpp"
#include "service/client.hpp"
#include "service/job.hpp"
#include "service/server.hpp"

namespace perfbench {

using namespace ringsim;

namespace {

/** Service start-ups timed per run; setup_s is their median. */
constexpr unsigned kSetupRepeats = 101;

/** FigureOptions::refs of the probe's split Figure 6 sweep. */
constexpr std::uint64_t kProbeSweepRefs = 8000;

JsonValue
sweepJob(figures::FigureId figure, std::uint64_t refs, std::uint64_t seed)
{
    JsonValue job = JsonValue::object();
    job.set("type", JsonValue::string("sweep"));
    job.set("figure", JsonValue::string(figures::figureName(figure)));
    job.set("refs", JsonValue::integer(refs));
    job.set("fast", JsonValue::boolean(true));
    job.set("seed", JsonValue::integer(seed));
    return job;
}

service::ServiceConfig
serviceConfig(const WorkloadArgs &args)
{
    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.jobsPerSweep = args.threads;
    cfg.memCacheEntries = 4;
    cfg.cacheDir = "figcache";
    return cfg;
}

/** Figure requests through one ServiceCore, with their outcomes. */
struct FigRun
{
    JsonValue sweeps = JsonValue::array();
    JsonValue failures = JsonValue::array();
    std::uint64_t attempted = 0;
    std::string lastText;

    void fail(const std::string &why)
    {
        failures.append(JsonValue::string(why));
    }

    void sweep(service::ServiceCore &core, const WorkloadArgs &args,
               std::uint64_t seed)
    {
        const std::string line =
            submitLine(sweepJob(args.figure, args.refs, seed));
        ++attempted;
        const double c0 = processCpuS();
        const double t0 = nowS();
        const std::string reply_line = core.handleLine("bench", line);
        const double wall = nowS() - t0;
        const double cpu = processCpuS() - c0;
        JsonValue reply;
        const JsonValue *result = nullptr;
        if (!parseReply(reply_line, &reply) ||
            !reply.getBool("ok", false, nullptr) ||
            reply.getString("state", "", nullptr) != "done" ||
            reply.getBool("cached", true, nullptr) ||
            !(result = reply.find("result"))) {
            fail("sweep seed " + std::to_string(seed) + ": " +
                 reply_line.substr(0, 200));
            lastText.clear();
            return;
        }
        lastText = result->getString("text", "", nullptr);
        JsonValue s = JsonValue::object();
        s.set("seed", JsonValue::integer(seed));
        s.set("wall_s", JsonValue::number(wall));
        s.set("cpu_s", JsonValue::number(cpu));
        s.set("text", JsonValue::string(lastText));
        sweeps.append(std::move(s));
    }
};

/**
 * Send @p job to @p endpoint once; the dumped result object, or an
 * empty string (with a failure recorded) if the answer is not a done
 * job.
 */
std::string
request(const std::string &endpoint, const JsonValue &job,
        const std::string &what, JsonValue &failures)
{
    service::ServiceClient client;
    std::string error;
    std::string reply_line;
    JsonValue reply;
    const JsonValue *result = nullptr;
    if (!client.tryConnect(endpoint, &error) ||
        !client.tryRequest(submitLine(job), &reply_line, &error)) {
        failures.append(JsonValue::string(what + ": " + error));
        return "";
    }
    if (!parseReply(reply_line, &reply) ||
        !reply.getBool("ok", false, nullptr) ||
        reply.getString("state", "", nullptr) != "done" ||
        !(result = reply.find("result"))) {
        failures.append(
            JsonValue::string(what + ": " + reply_line.substr(0, 200)));
        return "";
    }
    return result->dump();
}

/**
 * The same new @p job sent to @p endpoint by two clients at once, each
 * on its own connection and thread, so the receiving daemon coalesces
 * them. Both answers must equal service::executeJob on the spec.
 */
void
duplicatePair(const std::string &endpoint, const JsonValue &job,
              const std::string &what, JsonValue &failures)
{
    const std::string line = submitLine(job);
    std::barrier<> start(2);
    std::string answers[2];
    std::string errors[2];
    auto client = [&](unsigned c) {
        service::ServiceClient conn;
        std::string reply_line;
        const bool connected = conn.tryConnect(endpoint, &errors[c]);
        start.arrive_and_wait();
        JsonValue reply;
        const JsonValue *result = nullptr;
        if (connected && conn.tryRequest(line, &reply_line, &errors[c]) &&
            parseReply(reply_line, &reply) &&
            reply.getString("state", "", nullptr) == "done" &&
            (result = reply.find("result")))
            answers[c] = result->dump();
        else
            errors[c] += reply_line.substr(0, 200);
    };
    {
        std::jthread other(client, 1);
        client(0);
    }

    service::JobSpec spec;
    std::string error;
    std::string expected = "(spec does not parse)";
    try {
        if (service::JobSpec::tryParse(job, false, &spec, &error))
            expected = service::executeJob(spec, 1).dump();
    } catch (const std::exception &e) {
        expected = std::string("executeJob threw: ") + e.what();
    }
    for (unsigned c = 0; c < 2; ++c) {
        if (answers[c].empty())
            failures.append(JsonValue::string(
                what + " client " + std::to_string(c) + ": " + errors[c]));
        else if (answers[c] != expected)
            failures.append(JsonValue::string(
                what + " client " + std::to_string(c) +
                ": answer differs from executeJob"));
    }
}

/** A small ring `run` spec, as ringsim_submit sends one. */
JsonValue
runJob(std::uint64_t seed)
{
    JsonValue job = JsonValue::object();
    job.set("type", JsonValue::string("run"));
    job.set("benchmark", JsonValue::string("mp3d"));
    job.set("procs", JsonValue::integer(16));
    job.set("protocol", JsonValue::string("snoop"));
    job.set("refs", JsonValue::integer(8000));
    job.set("fast", JsonValue::boolean(true));
    job.set("seed", JsonValue::integer(seed));
    return job;
}

/**
 * Serving probe: a two-worker fleet answering one request of each
 * shape the service.* and fleet.* counters describe:
 *  1. a small Figure 6 sweep, which the coordinator splits into
 *     per-block parts; the parts outnumber the workers' memory tiers,
 *     so storing them evicts;
 *  2. the same sweep again, its parts answered from the worker caches,
 *     the evicted ones from disk;
 *  3. one new spec from two clients at once through the coordinator
 *     (coalesced there), another straight to one worker (coalesced
 *     inside it);
 *  4. the coordinator hop (measureHop) on a cached spec.
 * The sweep answers must equal figures::renderFigure in-process, the
 * duplicate answers service::executeJob.
 */
JsonValue
servingProbe(const WorkloadArgs &args, JsonValue &failures)
{
    JsonValue out = JsonValue::object();
    Fleet fleet(args.binDir, "probe");
    std::string error;
    if (fleet.start(&error) < 0) {
        failures.append(JsonValue::string("serving probe: " + error));
        return out;
    }
    auto snapshot = [&fleet]() {
        JsonValue s = JsonValue::object();
        std::vector<JsonValue> workers;
        for (const std::string &w : fleet.workers())
            workers.push_back(Fleet::statsz(w));
        s.set("service", serviceCounters(workers));
        JsonValue coord = Fleet::statsz(fleet.coordinator());
        const JsonValue *counters = coord.find("fleet");
        s.set("fleet", counters ? *counters : JsonValue::object());
        return s;
    };
    out.set("before", snapshot());

    const std::uint64_t sweep_seed = deriveSeed(args.seed, 1'000);
    const JsonValue sweep =
        sweepJob(figures::FigureId::Fig6, kProbeSweepRefs, sweep_seed);
    figures::FigureOptions opt;
    opt.refs = kProbeSweepRefs;
    opt.seed = sweep_seed;
    opt.fast = true;
    opt.jobs = 1;
    const std::string expected_text =
        figures::renderFigure(figures::FigureId::Fig6, opt);
    for (const char *what : {"probe sweep", "probe sweep repeat"}) {
        std::string result = request(fleet.coordinator(), sweep, what,
                                     failures);
        JsonValue parsed;
        if (!result.empty() &&
            (!parseReply(result, &parsed) ||
             parsed.getString("text", "", nullptr) != expected_text))
            failures.append(JsonValue::string(
                std::string(what) + ": differs from renderFigure"));
    }
    duplicatePair(fleet.coordinator(), runJob(deriveSeed(args.seed, 1'001)),
                  "probe duplicate via coordinator", failures);
    duplicatePair(fleet.workers()[0], runJob(deriveSeed(args.seed, 1'002)),
                  "probe duplicate at a worker", failures);

    JsonValue model = JsonValue::object();
    model.set("type", JsonValue::string("model"));
    model.set("benchmark", JsonValue::string("mp3d"));
    model.set("procs", JsonValue::integer(8));
    model.set("refs", JsonValue::integer(8000));
    model.set("fast", JsonValue::boolean(true));
    model.set("seed", JsonValue::integer(deriveSeed(args.seed, 1'003)));
    double hop_ms = 0;
    if (!measureHop(fleet.coordinator(), fleet.workers(), model, &hop_ms,
                    &error))
        failures.append(JsonValue::string("serving probe: " + error));
    out.set("after", snapshot());
    out.set("hop_ms", JsonValue::number(hop_ms));
    // Requests of the probe that a worker cache should answer: the
    // repeated sweep's parts and both sides of every hop sample.
    out.set("repeats",
            JsonValue::integer(figures::figureBlockCount(
                                   figures::FigureId::Fig6, opt) +
                               2 * kHopSamples));
    // Sweeps, duplicate-pair requests, the hop warm-up and samples.
    out.set("attempted", JsonValue::integer(2 + 4 + 1 + 2 * kHopSamples));
    fleet.stop();
    return out;
}

} // namespace

JsonValue
runFigWorkload(const WorkloadArgs &args)
{
    // Set-up: everything before the first timed request — starting
    // the service (its result cache scans the cache directory) until
    // it answers ping, and the figure's block plan. Repeated; the last
    // instance serves.
    JsonValue setup = JsonValue::array();
    std::unique_ptr<service::ServiceCore> core;
    figures::FigureOptions plan_opt;
    plan_opt.refs = args.refs;
    plan_opt.fast = true;
    std::size_t blocks = 0;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        core.reset();
        const double t0 = nowS();
        core = std::make_unique<service::ServiceCore>(serviceConfig(args));
        (void)core->handleLine("bench", "{\"op\":\"ping\"}");
        blocks = figures::figureBlockCount(args.figure, plan_opt);
        setup.append(JsonValue::number(nowS() - t0));
    }

    FigRun run;
    JsonValue out = JsonValue::object();
    out.set("workload", JsonValue::string(args.name));
    out.set("setup_s", std::move(setup));

    if (!args.trace) {
        // One untimed sweep first: the heap grows to its working size
        // (and the allocator's thresholds adapt) once per process, a
        // cost a long-running service pays only at start.
        FigRun warm;
        warm.sweep(*core, args, deriveSeed(args.seed, 0));
        for (const JsonValue &f : warm.failures.items())
            run.failures.append(f);
        run.attempted += warm.attempted;
        const double w0 = nowS();
        std::uint64_t i = 0;
        do {
            run.sweep(*core, args,
                      i == 0 ? args.recordedSeed : deriveSeed(args.seed, i));
            ++i;
        } while (nowS() - w0 < args.seconds && i < 64);
        out.set("window_s", JsonValue::number(nowS() - w0));
    } else {
        // The recorded seed, so its digest gates the traced run too.
        const double w0 = nowS();
        run.sweep(*core, args, args.recordedSeed);
        out.set("window_s", JsonValue::number(nowS() - w0));

        // The replay twice: spans off, then on. Same work, so the wall
        // time difference is the tracing overhead, and the counts of
        // the two must agree exactly.
        figures::FigureOptions opt;
        opt.refs = args.refs;
        opt.seed = args.recordedSeed;
        opt.fast = true;
        opt.jobs = args.threads;
        SpanLog off(false);
        LayerCounts plain_counts;
        RunnerTimes plain_runner;
        std::string plain = replayFigure(args.figure, opt, args.threads,
                                         off, 0, &plain_counts,
                                         &plain_runner);
        out.set("untraced_wall_s", JsonValue::number(plain_runner.wallS));

        SpanLog spans(true);
        LayerCounts counts;
        RunnerTimes runner;
        std::uint64_t root =
            spans.open("bench.replay", 0, spans.newRequest());
        std::string text = replayFigure(args.figure, opt, args.threads,
                                        spans, root, &counts, &runner);
        spans.close(root);
        if (text != run.lastText || plain != run.lastText)
            run.fail("layer replay does not reproduce the figure");
        if (counts.toJson().dump() != plain_counts.toJson().dump())
            run.fail("layer counts differ between two replays of one seed");
        out.set("layers", counts.toJson());
        out.set("runner", runner.toJson());
        out.set("spans", spans.toJson());
        JsonValue probe = servingProbe(args, run.failures);
        run.attempted += probe.getU64("attempted", 0, nullptr);
        out.set("probe", std::move(probe));
    }

    JsonValue counts = JsonValue::object();
    counts.set("figures.blocks", JsonValue::integer(blocks));
    out.set("counts", std::move(counts));
    out.set("sweeps", std::move(run.sweeps));
    out.set("attempted", JsonValue::integer(run.attempted));
    out.set("failures", std::move(run.failures));
    core.reset();
    out.set("peak_rss_mb", JsonValue::number(peakRssMb()));
    return out;
}

} // namespace perfbench
