/**
 * @file
 * Experiment-service configuration.
 *
 * One ServiceConfig describes a ringsim_serve daemon: how many jobs
 * execute concurrently, how deep the admission queue may grow before
 * requests are shed, where the two cache tiers live, and the salt
 * that invalidates every cached result when the code changes.
 *
 * Environment defaults (read through util::env, see the getenv lint
 * rule): RINGSIM_WATCHDOG_MS seeds the per-job watchdog and
 * RINGSIM_CACHE_SALT adds an operator salt on top of the built-in
 * code-version salt.
 */

#ifndef RINGSIM_SERVICE_CONFIG_HPP
#define RINGSIM_SERVICE_CONFIG_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/service_faults.hpp"

namespace ringsim::service {

/** Tunables of one daemon instance. */
struct ServiceConfig
{
    /** Concurrent job executor threads. */
    unsigned workers = 2;

    /**
     * Worker threads *inside* one job (a figure sweep fans out onto
     * the experiment runner); 0 = auto ($RINGSIM_JOBS, else hardware).
     */
    unsigned jobsPerSweep = 0;

    /**
     * Bound on jobs admitted but not yet finished (queued + running).
     * A submit over this bound is shed with a structured retry_after
     * response — the queue can never grow without limit.
     */
    std::size_t queueDepth = 64;

    /** In-memory result-cache capacity, in entries. */
    std::size_t memCacheEntries = 128;

    /** On-disk result-cache directory; empty disables the disk tier. */
    std::string cacheDir;

    /**
     * Operator salt appended to the built-in code-version salt in
     * every cache key. Defaults to $RINGSIM_CACHE_SALT (empty when
     * unset). Changing either salt invalidates every cached entry.
     */
    std::string salt;

    /**
     * Per-job wall-clock watchdog. A job over budget is reported
     * timed_out to pollers (its thread cannot be interrupted; a late
     * completion is counted and discarded). Defaults to
     * $RINGSIM_WATCHDOG_MS, else 10 minutes. Zero disables.
     */
    std::chrono::milliseconds watchdog{0};

    /** Completed job records retained for polling (oldest dropped). */
    std::size_t retainDone = 1024;

    /**
     * Base advisory backoff returned with a shed response. The
     * effective hint scales with how overcommitted the queue is.
     */
    std::uint64_t retryAfterMs = 250;

    /**
     * Accept the test-only "sleep" job kind (used by the test suite
     * to pin workers deterministically). Never enable in production.
     */
    bool enableTestJobs = false;

    /**
     * Graceful degradation to the analytic model: when admission
     * would shed a run/sweep/model job (or the watchdog abandons
     * one), answer with the millisecond model estimate instead,
     * tagged degraded:true with the paper's ~15% error bound. A
     * request opts out with "degrade": false. Off by default — a
     * degraded answer is *not* byte-identical to the simulation.
     */
    bool degradeToModel = false;

    /**
     * Service-layer chaos injection (--chaos SEED uses
     * fault::ServiceFaultConfig::chaosPreset). All-zero rates — the
     * default — disable injection entirely.
     */
    fault::ServiceFaultConfig chaos;

    /** A config with the environment defaults applied. */
    static ServiceConfig withEnvDefaults();

    /**
     * All misconfigurations, as human-readable "field = value"
     * messages (empty when the config is sound).
     */
    [[nodiscard]] std::vector<std::string> check() const;

    /** fatal() with the first check() error, if any. */
    void validate() const;
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_CONFIG_HPP
