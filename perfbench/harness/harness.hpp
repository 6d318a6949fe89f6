/**
 * @file
 * perfbench_harness: shared declarations.
 *
 * The harness times ringsim from the outside: every measurement is a
 * clock read around a call into a public function of the library, a
 * request to an in-process ServiceCore, or a request over the NDJSON
 * socket protocol of ringsim_fleetd/ringsim_serve. It writes raw
 * samples, spans and counts as one JSON document; perfbench/run.py
 * turns them into metrics and checks them.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "figures/figures.hpp"
#include "util/json.hpp"

namespace perfbench {

using ringsim::util::JsonValue;

/** Seconds on the steady clock since the harness started. */
double nowS();

/** CPU seconds (user + system) of this process, all threads. */
double processCpuS();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Deterministic seed number @p index of the stream of @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t index);

/** Parse a reply line; false on malformed JSON. */
bool parseReply(const std::string &line, JsonValue *out);

/**
 * In-memory span recorder. A span has a name, start and end (seconds
 * on nowS()'s clock), its own id, the id of the span that caused it
 * (0 for a root) and the id of the request it serves. Spans are kept
 * in memory and written out once, at exit. A disabled log records
 * nothing and hands out id 0.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Open a span now; returns its id. */
    std::uint64_t open(const char *name, std::uint64_t parent,
                       std::uint64_t request);

    /** Close span @p id now. */
    void close(std::uint64_t id);

    /** A fresh request id (shared by the spans of one request). */
    std::uint64_t newRequest() { return nextRequest_++; }

    /** All spans: [[name, start_s, end_s, id, parent, request], ...]. */
    JsonValue toJson() const;

  private:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        std::uint64_t parent = 0;
        std::uint64_t request = 0;
    };

    const bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< span id - 1 indexes this vector
    std::atomic<std::uint64_t> nextRequest_{1};
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, std::uint64_t parent,
              std::uint64_t request)
        : log_(log), id_(log.open(name, parent, request))
    {}
    ~SpanScope() { log_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

/**
 * Deterministic work counters of a per-layer replay. Every field is a
 * function of the replayed inputs alone, so two replays of one seed
 * must agree exactly.
 */
struct LayerCounts
{
    std::uint64_t traceRefs = 0;      //!< records generated
    std::uint64_t censuses = 0;       //!< FunctionalEngine runs
    std::uint64_t accesses = 0;       //!< engine.access() calls
    std::uint64_t dataRefs = 0;       //!< post-warmup data references
    std::uint64_t hits = 0;           //!< post-warmup hits
    std::uint64_t misses = 0;         //!< post-warmup misses
    std::uint64_t upgrades = 0;       //!< post-warmup upgrades
    std::uint64_t writebacks = 0;     //!< post-warmup write-backs
    std::uint64_t solves = 0;         //!< model solves
    std::uint64_t ringRuns = 0;       //!< runRingSystem calls
    std::uint64_t busRuns = 0;        //!< runBusSystem calls
    std::uint64_t simRefs = 0;        //!< data refs fed to timed runs
    std::uint64_t windowTicks = 0;    //!< summed measurement windows
    std::uint64_t remoteMisses = 0;   //!< summed window remote misses
    std::uint64_t simUpgrades = 0;    //!< summed window upgrades
    std::uint64_t blocks = 0;         //!< figure blocks replayed

    void add(const LayerCounts &o);
    JsonValue toJson() const;
};

/** Runner accounting of a replayed sweep (host time, seconds). */
struct RunnerTimes
{
    std::uint64_t jobs = 0;
    double busyS = 0;      //!< summed job run time
    double queueWaitS = 0; //!< summed submit-to-start time
    double criticalS = 0;  //!< longest job per phase, summed
    double wallS = 0;      //!< replay wall time
    unsigned threads = 1;

    JsonValue toJson() const;
};

/**
 * Replay figure @p id under @p opt layer by layer through public
 * functions — trace::makeAddressMap/makeTraceSet, a FunctionalEngine
 * census, model::solveRing/solveBus, core::runRingSystem/runBusSystem
 * — on a runner::ExperimentRunner of @p threads workers, phased like
 * FigureSweep::run(). Returns figures::assembleFigure() of the
 * replayed rows, which equals renderFigure() when the replay is
 * faithful.
 */
std::string replayFigure(ringsim::figures::FigureId id,
                         const ringsim::figures::FigureOptions &opt,
                         unsigned threads, SpanLog &spans,
                         std::uint64_t parent, LayerCounts *counts,
                         RunnerTimes *runner);

/** Options of a figure-sweep workload. */
struct WorkloadArgs
{
    std::string name;         //!< workload name (for the output)
    std::uint64_t seed = 1;   //!< workload seed
    double seconds = 10;      //!< measurement window target
    bool trace = false;       //!< traced (per-layer) run
    std::string binDir;       //!< directory of ringsim_serve/fleetd
    unsigned threads = 4;     //!< sweep thread budget
    ringsim::figures::FigureId figure = ringsim::figures::FigureId::Fig4;
    std::uint64_t refs = 120'000;    //!< FigureOptions::refs (fast)
    std::uint64_t recordedSeed = 0;  //!< seed with a recorded digest
};

JsonValue runFigWorkload(const WorkloadArgs &args);

/** Samples per side of measureHop(). */
constexpr unsigned kHopSamples = 200;

/**
 * Median latency added by the coordinator hop: the same repeat
 * request @p job sent kHopSamples times through @p coordinator and
 * straight to the worker that owns its shard, interleaved. Fills @p hop_ms;
 * false (with @p error) if a request failed.
 */
bool measureHop(const std::string &coordinator,
                const std::vector<std::string> &workers,
                const JsonValue &job, double *hop_ms, std::string *error);

/**
 * The service-layer counters of worker statsz replies, summed over
 * @p statsz, with executed-job latency as exec_count/exec_total_ms.
 */
JsonValue serviceCounters(const std::vector<JsonValue> &statsz);

/** Submit-and-wait request line for a job object. */
std::string submitLine(const JsonValue &job);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
