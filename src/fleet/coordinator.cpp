#include "coordinator.hpp"

#include <exception>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "figures/figures.hpp"
#include "fleet/shard.hpp"
#include "runner/experiment_runner.hpp"
#include "service/cache_key.hpp"
#include "util/logging.hpp"

namespace ringsim::fleet {

namespace {

util::JsonValue
errorResponse(const char *op, const std::string &message)
{
    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(false));
    if (op)
        o.set("op", util::JsonValue::string(op));
    o.set("error", util::JsonValue::string(message));
    return o;
}

/**
 * Counters summed across worker statsz responses into the "totals"
 * section. Fixed allowlist rather than "every numeric member" so a
 * future per-worker gauge (queue_depth, workers) does not silently
 * turn into a nonsense fleet total.
 */
const char *const kSummedCounters[] = {
    "submitted",  "admitted",  "shed",          "completed",
    "failed",     "timed_out", "cache_answers", "cancelled",
    "degraded",   "coalesced", "bad_requests",  "late_completions",
    "deadline_expired",
};

/** The per-part rows of a worker's sweep_part result, or throw. */
std::vector<figures::FigureRow>
extractPartRows(const util::JsonValue &response, std::size_t part)
{
    const util::JsonValue *result = response.find("result");
    if (result == nullptr || !result->isObject())
        throw std::runtime_error(
            "part " + std::to_string(part) +
            ": worker response has no result object");
    const util::JsonValue *kind = result->find("kind");
    if (kind == nullptr || !kind->isString() ||
        kind->asString() != "sweep_part")
        throw std::runtime_error("part " + std::to_string(part) +
                                 ": result is not a sweep_part");
    const util::JsonValue *rows = result->find("rows");
    if (rows == nullptr || !rows->isArray())
        throw std::runtime_error("part " + std::to_string(part) +
                                 ": sweep_part has no rows array");
    std::vector<figures::FigureRow> out;
    out.reserve(rows->items().size());
    for (const util::JsonValue &jrow : rows->items()) {
        if (!jrow.isArray())
            throw std::runtime_error("part " + std::to_string(part) +
                                     ": row is not an array");
        figures::FigureRow row;
        row.reserve(jrow.items().size());
        for (const util::JsonValue &cell : jrow.items()) {
            if (!cell.isString())
                throw std::runtime_error(
                    "part " + std::to_string(part) +
                    ": row cell is not a string");
            row.push_back(cell.asString());
        }
        out.push_back(std::move(row));
    }
    return out;
}

/**
 * validate() before the WorkerPool touches the endpoint list, so a
 * misconfiguration dies with fatal()'s message instead of a panic.
 */
const FleetConfig &
validated(const FleetConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

FleetCore::FleetCore(const FleetConfig &cfg)
    : cfg_(cfg), pool_(validated(cfg_).workers,
                       cfg_.attemptsPerWorker, cfg_.probeMs)
{
    inform("fleet: %zu workers, degrade %s", pool_.size(),
           cfg_.degradeToModel ? "on" : "off");
}

bool
FleetCore::shutdownRequested() const
{
    core::MutexLock lock(mutex_);
    return shutdown_;
}

void
FleetCore::clientGone(const std::string &client)
{
    // Submits answer synchronously on the connection's thread; a
    // vanished client abandons nothing the coordinator tracks.
    (void)client;
}

std::string
FleetCore::handleLine(const std::string &client,
                      const std::string &line)
{
    util::JsonValue req;
    std::string parse_error;
    if (!util::tryParseJson(line, &req, &parse_error) ||
        !req.isObject()) {
        core::MutexLock lock(mutex_);
        ++bad_requests_;
        return errorResponse(nullptr,
                             "bad request: " +
                                 (parse_error.empty()
                                      ? "expected a JSON object"
                                      : parse_error))
            .dump();
    }
    std::vector<std::string> errors;
    std::string op = req.getString("op", "", &errors);
    if (op == "ping") {
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("ping"));
        o.set("role", util::JsonValue::string("fleet"));
        return o.dump();
    }
    if (op == "submit")
        return handleSubmit(client, req);
    if (op == "poll")
        return handlePoll(req);
    if (op == "statsz")
        return handleStatsz();
    if (op == "shutdown") {
        core::MutexLock lock(mutex_);
        shutdown_ = true;
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("shutdown"));
        return o.dump();
    }
    if (op == "cancel")
        return errorResponse("cancel",
                             "fleet submits complete synchronously; "
                             "cancel against a worker daemon")
            .dump();
    {
        core::MutexLock lock(mutex_);
        ++bad_requests_;
    }
    return errorResponse(nullptr, "op = '" + op +
                                      "': expected ping, submit, "
                                      "poll, statsz or shutdown")
        .dump();
}

std::string
FleetCore::handleSubmit(const std::string &client,
                        const util::JsonValue &req)
{
    const util::JsonValue *job = req.find("job");
    if (job == nullptr) {
        core::MutexLock lock(mutex_);
        ++bad_requests_;
        return errorResponse("submit",
                             "job = <missing>: a submit carries its "
                             "job spec inline")
            .dump();
    }
    service::JobSpec spec;
    std::string parse_error;
    if (!service::JobSpec::tryParse(*job, cfg_.enableTestJobs, &spec,
                                    &parse_error)) {
        core::MutexLock lock(mutex_);
        ++bad_requests_;
        return errorResponse("submit", parse_error.empty()
                                           ? "bad job spec"
                                           : parse_error)
            .dump();
    }

    std::string identity =
        service::cacheKey(spec.canonical().dump(), cfg_.salt);
    std::uint64_t id;
    {
        core::MutexLock lock(mutex_);
        id = next_id_++;
        ++submitted_;
    }

    std::string response;
    std::size_t blocks = 1;
    if (spec.kind == service::JobKind::Sweep && spec.sweepPart < 0)
        blocks = figures::figureBlockCount(
            spec.figure, figures::FigureOptions{}, spec.fig6Cholesky);
    if (blocks > 1)
        response = splitSweep(*job, spec, id);
    else
        response = forwardWhole(*job, spec, identity, id);
    retain(id, response);
    (void)client;
    return response;
}

std::string
FleetCore::forwardWhole(const util::JsonValue &job,
                        const service::JobSpec &spec,
                        const std::string &identity, std::uint64_t id)
{
    util::JsonValue wreq = util::JsonValue::object();
    wreq.set("op", util::JsonValue::string("submit"));
    wreq.set("wait", util::JsonValue::boolean(true));
    wreq.set("job", job);

    util::JsonValue reply;
    std::size_t worker = 0;
    std::string error;
    ForwardOutcome outcome =
        pool_.tryForward(wreq, identity, &reply, &worker, &error);
    if (outcome != ForwardOutcome::Answered)
        return degradeOrFail(spec, id, error);

    noteAnswered(reply);
    {
        core::MutexLock lock(mutex_);
        ++forwarded_;
    }
    reply.set("id", util::JsonValue::integer(id));
    reply.set("worker",
              util::JsonValue::string(cfg_.workers[worker]));
    return reply.dump();
}

std::string
FleetCore::splitSweep(const util::JsonValue &job,
                      const service::JobSpec &spec, std::uint64_t id)
{
    std::size_t blocks = figures::figureBlockCount(
        spec.figure, figures::FigureOptions{}, spec.fig6Cholesky);
    unsigned fanout = cfg_.fanout != 0
                          ? cfg_.fanout
                          : static_cast<unsigned>(2 * pool_.size());
    if (fanout > blocks)
        fanout = static_cast<unsigned>(blocks);

    std::vector<std::function<std::vector<figures::FigureRow>()>>
        tasks;
    tasks.reserve(blocks);
    for (std::size_t part = 0; part < blocks; ++part) {
        // The subjob is the client's own job object plus a part
        // index; its shard key is the *part spec's* canonical key,
        // so parts spread across the fleet while repeats of the same
        // part hit the same worker's warm cache.
        util::JsonValue part_job = job;
        part_job.set("part", util::JsonValue::integer(
                                 static_cast<std::uint64_t>(part)));
        service::JobSpec part_spec = spec;
        part_spec.sweepPart = static_cast<std::int64_t>(part);
        std::string part_key = service::cacheKey(
            part_spec.canonical().dump(), cfg_.salt);

        util::JsonValue wreq = util::JsonValue::object();
        wreq.set("op", util::JsonValue::string("submit"));
        wreq.set("wait", util::JsonValue::boolean(true));
        wreq.set("job", std::move(part_job));

        tasks.push_back([this, wreq = std::move(wreq),
                         part_key = std::move(part_key), part]() {
            util::JsonValue reply;
            std::size_t worker = 0;
            std::string error;
            ForwardOutcome outcome = pool_.tryForward(
                wreq, part_key, &reply, &worker, &error);
            if (outcome != ForwardOutcome::Answered)
                throw std::runtime_error(
                    "part " + std::to_string(part) + ": " + error);
            noteAnswered(reply);
            std::vector<std::string> errors;
            if (!reply.getBool("ok", false, &errors))
                throw std::runtime_error(
                    "part " + std::to_string(part) + ": " +
                    reply.getString("error", "worker error",
                                    &errors));
            return extractPartRows(reply, part);
        });
    }

    std::vector<std::vector<figures::FigureRow>> rows_per_block;
    try {
        rows_per_block =
            runner::runAll(std::move(tasks), fanout);
    } catch (const std::exception &e) {
        return degradeOrFail(spec, id, e.what());
    }

    std::string text = figures::assembleFigure(
        spec.figure, spec.figureOptions(), rows_per_block, spec.csv,
        spec.fig6Cholesky);

    {
        core::MutexLock lock(mutex_);
        ++sweep_splits_;
        parts_forwarded_ += blocks;
    }

    // Same result shape a worker's whole-sweep execution produces,
    // so clients cannot tell (and must not care) whether a sweep was
    // split.
    util::JsonValue result = util::JsonValue::object();
    result.set("kind", util::JsonValue::string("sweep"));
    result.set("figure", util::JsonValue::string(
                             figures::figureName(spec.figure)));
    result.set("text", util::JsonValue::string(std::move(text)));

    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("op", util::JsonValue::string("submit"));
    o.set("id", util::JsonValue::integer(id));
    o.set("state", util::JsonValue::string("done"));
    o.set("cached", util::JsonValue::boolean(false));
    o.set("split", util::JsonValue::integer(blocks));
    o.set("result", std::move(result));
    return o.dump();
}

std::string
FleetCore::degradeOrFail(const service::JobSpec &spec,
                         std::uint64_t id, const std::string &why)
{
    if (cfg_.degradeToModel && spec.allowDegraded &&
        spec.degradable()) {
        try {
            std::string answer =
                service::degradedAnswer(spec, id, cfg_.jobsPerSweep);
            core::MutexLock lock(mutex_);
            ++degraded_;
            return answer;
        } catch (const std::exception &e) {
            warn("fleet: degraded fallback failed: %s", e.what());
        }
    }
    {
        core::MutexLock lock(mutex_);
        ++failures_;
    }
    util::JsonValue o = errorResponse(
        "submit", "fleet unavailable: " + why);
    o.set("id", util::JsonValue::integer(id));
    o.set("retry_after_ms",
          util::JsonValue::integer(cfg_.retryAfterMs));
    return o.dump();
}

void
FleetCore::noteAnswered(const util::JsonValue &reply)
{
    std::vector<std::string> ignored;
    if (!reply.getBool("coalesced", false, &ignored))
        return;
    core::MutexLock lock(mutex_);
    ++coalesced_;
}

std::string
FleetCore::handlePoll(const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::uint64_t id = req.getU64("id", 0, &errors);
    if (!errors.empty() || id == 0)
        return errorResponse("poll",
                             "id = <missing>: poll needs the id a "
                             "submit returned")
            .dump();
    core::MutexLock lock(mutex_);
    auto it = done_.find(id);
    if (it == done_.end())
        return errorResponse("poll",
                             "id = " + std::to_string(id) +
                                 ": unknown (expired or never "
                                 "submitted)")
            .dump();
    // Replay the retained response with the op corrected; the rest —
    // including the result bytes — is exactly what submit returned.
    util::JsonValue o;
    std::string parse_error;
    if (!util::tryParseJson(it->second, &o, &parse_error))
        panic("fleet: unparsable retained response: %s",
              parse_error.c_str());
    o.set("op", util::JsonValue::string("poll"));
    return o.dump();
}

std::string
FleetCore::handleStatsz()
{
    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("op", util::JsonValue::string("statsz"));
    o.set("role", util::JsonValue::string("fleet"));

    {
        core::MutexLock lock(mutex_);
        util::JsonValue fleet = util::JsonValue::object();
        fleet.set("workers", util::JsonValue::integer(pool_.size()));
        fleet.set("submitted", util::JsonValue::integer(submitted_));
        fleet.set("forwarded", util::JsonValue::integer(forwarded_));
        fleet.set("coalesced", util::JsonValue::integer(coalesced_));
        fleet.set("requeues",
                  util::JsonValue::integer(pool_.requeues()));
        fleet.set("sweep_splits",
                  util::JsonValue::integer(sweep_splits_));
        fleet.set("parts_forwarded",
                  util::JsonValue::integer(parts_forwarded_));
        fleet.set("degraded", util::JsonValue::integer(degraded_));
        fleet.set("failures", util::JsonValue::integer(failures_));
        fleet.set("bad_requests",
                  util::JsonValue::integer(bad_requests_));
        fleet.set("retained",
                  util::JsonValue::integer(done_.size()));
        o.set("fleet", std::move(fleet));
    }

    // Per-worker: liveness from the router plus each live worker's
    // own statsz, fetched on this connection's thread.
    util::JsonValue statsz_req = util::JsonValue::object();
    statsz_req.set("op", util::JsonValue::string("statsz"));
    std::vector<WorkerSnapshot> snaps = pool_.snapshot();
    util::JsonValue workers = util::JsonValue::array();
    util::JsonValue totals = util::JsonValue::object();
    std::vector<std::uint64_t> sums(
        sizeof(kSummedCounters) / sizeof(kSummedCounters[0]), 0);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        util::JsonValue w = util::JsonValue::object();
        w.set("endpoint",
              util::JsonValue::string(snaps[i].endpoint));
        w.set("alive", util::JsonValue::boolean(snaps[i].alive));
        w.set("forwards",
              util::JsonValue::integer(snaps[i].forwards));
        w.set("failures",
              util::JsonValue::integer(snaps[i].failures));
        w.set("sheds", util::JsonValue::integer(snaps[i].sheds));
        if (!snaps[i].lastError.empty())
            w.set("last_error",
                  util::JsonValue::string(snaps[i].lastError));
        util::JsonValue wstats;
        std::string error;
        if (pool_.tryCallWorker(i, statsz_req, &wstats, &error)) {
            std::vector<std::string> ignored;
            for (std::size_t c = 0; c < sums.size(); ++c)
                sums[c] += wstats.getU64(kSummedCounters[c], 0,
                                         &ignored);
            w.set("statsz", std::move(wstats));
        } else {
            w.set("statsz", util::JsonValue::null());
        }
        workers.append(std::move(w));
    }
    for (std::size_t c = 0; c < sums.size(); ++c)
        totals.set(kSummedCounters[c],
                   util::JsonValue::integer(sums[c]));
    o.set("workers", std::move(workers));
    o.set("totals", std::move(totals));
    return o.dump();
}

void
FleetCore::retain(std::uint64_t id, const std::string &response)
{
    core::MutexLock lock(mutex_);
    done_.emplace(id, response);
    done_order_.push_back(id);
    while (done_order_.size() > cfg_.retainDone) {
        done_.erase(done_order_.front());
        done_order_.pop_front();
    }
}

} // namespace ringsim::fleet
