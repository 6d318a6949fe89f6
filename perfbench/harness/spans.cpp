#include <sys/resource.h>

#include <chrono>

#include "harness.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

} // namespace

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kStart)
        .count();
}

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 over (seed, index); kept below 2^31 so every seed is
    // an exact JSON integer and a valid bench --seed.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return (z & 0x7FFFFFFFull) | 1;
}

bool
parseReply(const std::string &line, JsonValue *out)
{
    std::string error;
    return ringsim::util::tryParseJson(line, out, &error) &&
           out->isObject();
}

std::string
submitLine(const JsonValue &job)
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("submit"));
    req.set("wait", JsonValue::boolean(true));
    req.set("job", job);
    return req.dump();
}

std::uint64_t
SpanLog::open(const char *name, std::uint64_t parent,
              std::uint64_t request)
{
    if (!enabled_)
        return 0;
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start = nowS();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return spans_.size();
}

void
SpanLog::close(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    double end = nowS();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
}

JsonValue
SpanLog::toJson() const
{
    JsonValue out = JsonValue::array();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        JsonValue row = JsonValue::array();
        row.append(JsonValue::string(s.name));
        row.append(JsonValue::number(s.start));
        row.append(JsonValue::number(s.end));
        row.append(JsonValue::integer(i + 1));
        row.append(JsonValue::integer(s.parent));
        row.append(JsonValue::integer(s.request));
        out.append(std::move(row));
    }
    return out;
}

void
LayerCounts::add(const LayerCounts &o)
{
    traceRefs += o.traceRefs;
    censuses += o.censuses;
    accesses += o.accesses;
    dataRefs += o.dataRefs;
    hits += o.hits;
    misses += o.misses;
    upgrades += o.upgrades;
    writebacks += o.writebacks;
    solves += o.solves;
    ringRuns += o.ringRuns;
    busRuns += o.busRuns;
    simRefs += o.simRefs;
    windowTicks += o.windowTicks;
    remoteMisses += o.remoteMisses;
    simUpgrades += o.simUpgrades;
    blocks += o.blocks;
}

JsonValue
LayerCounts::toJson() const
{
    JsonValue o = JsonValue::object();
    o.set("trace.refs", JsonValue::integer(traceRefs));
    o.set("coherence.censuses", JsonValue::integer(censuses));
    o.set("coherence.accesses", JsonValue::integer(accesses));
    o.set("coherence.data_refs", JsonValue::integer(dataRefs));
    o.set("coherence.hits", JsonValue::integer(hits));
    o.set("coherence.misses", JsonValue::integer(misses));
    o.set("coherence.upgrades", JsonValue::integer(upgrades));
    o.set("coherence.writebacks", JsonValue::integer(writebacks));
    o.set("model.solves", JsonValue::integer(solves));
    o.set("core.ring_runs", JsonValue::integer(ringRuns));
    o.set("core.bus_runs", JsonValue::integer(busRuns));
    o.set("core.sim_refs", JsonValue::integer(simRefs));
    o.set("core.window_ticks", JsonValue::integer(windowTicks));
    o.set("core.remote_misses", JsonValue::integer(remoteMisses));
    o.set("core.upgrades", JsonValue::integer(simUpgrades));
    o.set("figures.blocks", JsonValue::integer(blocks));
    return o;
}

JsonValue
RunnerTimes::toJson() const
{
    JsonValue o = JsonValue::object();
    o.set("jobs", JsonValue::integer(jobs));
    o.set("threads", JsonValue::integer(threads));
    o.set("busy_s", JsonValue::number(busyS));
    o.set("queue_wait_s", JsonValue::number(queueWaitS));
    o.set("critical_path_s", JsonValue::number(criticalS));
    o.set("wall_s", JsonValue::number(wallS));
    return o;
}

} // namespace perfbench
