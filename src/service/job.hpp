/**
 * @file
 * Experiment-service job specifications and executors.
 *
 * A job is the unit the service schedules, executes and memoizes.
 * Five kinds exist:
 *
 *   run    one timed simulation (ring snoop/directory or bus) of one
 *          workload — returns the RunResult fields;
 *   sweep  one registered paper artifact (table1..table4,
 *          fig3..fig6, the ablations; see figures::allFigures) —
 *          returns the rendered bench output, byte-identical to the
 *          bench binary's stdout;
 *   model  one analytic-model solve (calibration census + ring or bus
 *          queueing model at one processor cycle time);
 *   verify one exhaustive protocol model-check configuration;
 *   sleep  test-only (gated by ServiceConfig::enableTestJobs): holds
 *          a worker for a fixed time, so tests can pin the pool and
 *          exercise queueing/shedding deterministically.
 *
 * Parsing is strict about types but forgiving about omissions: every
 * field has the bench default. canonical() re-serializes the spec
 * with *all* defaults materialized, in a fixed key order — that
 * string (plus salts) is the cache key, so a request that spells a
 * default out and one that omits it hit the same entry.
 */

#ifndef RINGSIM_SERVICE_JOB_HPP
#define RINGSIM_SERVICE_JOB_HPP

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "figures/figures.hpp"
#include "trace/workload.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace ringsim::service {

/** What a job asks the service to do. */
enum class JobKind { Run, Sweep, Model, Verify, Sleep };

/** Printable job-kind wire name ("run", ...). */
const char *jobKindName(JobKind k);

/** Parsed, validated description of one job. */
struct JobSpec
{
    JobKind kind = JobKind::Run;

    // -- run / model ----------------------------------------------
    trace::Benchmark benchmark = trace::Benchmark::MP3D;
    unsigned procs = 16;
    /** "snoop", "directory" or "bus". */
    std::string protocol = "snoop";
    /** Ring clock period (ring protocols) / bus period, in ticks. */
    Tick period = 0; //!< 0 = protocol default (2000 ring, 20000 bus)
    /** model only: processor cycle time of the solve, in ns. */
    double cycleNs = 20;

    // -- shared workload knobs ------------------------------------
    Count refs = 120'000;
    std::uint64_t seed = 12345;
    bool fast = false;
    fault::FaultConfig faults;

    // -- sweep ----------------------------------------------------
    figures::FigureId figure = figures::FigureId::Fig3;
    bool csv = false;
    bool fig6Cholesky = false;

    /**
     * Sweep-part index: -1 computes the whole figure; >= 0 computes
     * exactly one registered block (the fleet's sweep-sharding unit)
     * and returns its rows instead of rendered text. Part specs are
     * cacheable like any sweep — the index joins the canonical spec —
     * but never degrade: a model-only part would poison the
     * reassembled figure with mixed tiers.
     */
    std::int64_t sweepPart = -1;

    // -- verify ---------------------------------------------------
    unsigned vNodes = 2;
    unsigned vBlocks = 1;
    unsigned vInflight = 2;
    bool vFaults = false;
    bool vFull = true;

    // -- sleep (test only) ----------------------------------------
    std::uint64_t sleepMs = 0;

    // -- service-level knobs (never part of the cache key: they
    //    bound *when* a job runs, not *what* it computes) ----------

    /**
     * Wall-clock budget from admission, in ms; 0 = none. A queued
     * job past its deadline is cancelled before dispatch; a running
     * one is abandoned like a watchdog timeout.
     */
    std::uint64_t deadlineMs = 0;

    /**
     * May the service answer with the analytic-model tier instead of
     * shedding or abandoning this job? ("degrade": false opts out.)
     * Only honored when the daemon enables degradeToModel.
     */
    bool allowDegraded = true;

    /**
     * Parse a request's "job" object. On success fills @p out and
     * returns true; on failure returns false and fills @p error with
     * "field = value"-style diagnostics.
     */
    [[nodiscard]] static bool tryParse(const util::JsonValue &json,
                                       bool allow_test_jobs,
                                       JobSpec *out, std::string *error);

    /**
     * The canonical spec: every result-affecting field materialized,
     * keys in fixed order. Equal canonical strings => byte-equal
     * results (the memoization contract).
     */
    util::JsonValue canonical() const;

    /** False for job kinds whose result must not be memoized. */
    bool cacheable() const { return kind != JobKind::Sleep; }

    /**
     * True for job kinds the analytic model can stand in for: a run
     * degrades to the queueing-model solve of the same
     * configuration, a whole sweep of an artifact with a model tier
     * (figures::figureHasModelTier: Figures 3, 4 and 6) to its model
     * series (sim validation rows omitted), a model job to itself
     * (executed inline).
     */
    bool degradable() const;

    /**
     * The sweep options of this spec's workload knobs (refs, seed,
     * fast, faults): the one sizing rule of every job kind.
     */
    figures::FigureOptions figureOptions() const;

    /** One-line human description (logs, statsz). */
    std::string describe() const;
};

/**
 * Execute @p spec synchronously on the calling thread and return the
 * result object ({"kind": ..., ...}). @p sweep_jobs is the internal
 * fan-out used by sweep jobs. Throws std::runtime_error on failure.
 */
util::JsonValue executeJob(const JobSpec &spec, unsigned sweep_jobs);

/**
 * Execute the analytic-model stand-in for @p spec (which must be
 * degradable()) and return the result object tagged
 * "degraded": true with the model's documented error bound. Costs a
 * calibration census plus a queueing-model solve — milliseconds
 * where the exact job costs seconds. Throws std::runtime_error on
 * failure.
 */
util::JsonValue executeDegraded(const JobSpec &spec,
                                unsigned sweep_jobs);

/**
 * The whole submit answer for job @p id from the model tier: the
 * executeDegraded() result wrapped as a finished, uncached, degraded
 * submit response, dumped. The worker's shed path and the fleet's
 * last resort both answer through this; each keeps its own counter
 * and its own fallback. Throws std::runtime_error on failure.
 */
std::string degradedAnswer(const JobSpec &spec, std::uint64_t id,
                           unsigned sweep_jobs);

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_JOB_HPP
