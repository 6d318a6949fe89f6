/**
 * @file
 * Fleet-coordinator configuration.
 *
 * One FleetConfig describes a ringsim_fleetd instance: the worker
 * daemons it routes to, how aggressively sweep jobs fan out across
 * them, how dead workers are re-probed, and whether the coordinator
 * may degrade to the analytic-model tier when the whole fleet is
 * unavailable or overloaded.
 */

#ifndef RINGSIM_FLEET_FLEET_CONFIG_HPP
#define RINGSIM_FLEET_FLEET_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace ringsim::fleet {

/** Tunables of one fleet-coordinator instance. */
struct FleetConfig
{
    /** Worker daemon endpoints, in shard order. At least one. */
    std::vector<std::string> workers;

    /**
     * Concurrent subjob forwards of one split sweep; 0 = auto
     * (2 x worker count, capped by the part count). Each forward
     * blocks on one worker, so the useful ceiling is the fleet's
     * total executor count.
     */
    unsigned fanout = 0;

    /**
     * Minimum interval between liveness re-probes of a worker marked
     * dead, in ms. Probing is lazy — the next request that would
     * route to (or past) a dead worker pings it if this much time
     * has elapsed — so recovery needs no dedicated thread.
     */
    std::uint64_t probeMs = 500;

    /**
     * Transport attempts per worker before failing over to the next
     * shard (ServiceClient::tryCallResilient semantics). Small by
     * design: a dead worker should cost milliseconds, not a retry
     * storm, because the failover path recomputes correctly anyway.
     */
    unsigned attemptsPerWorker = 2;

    /** Advisory backoff hint when every worker is unavailable. */
    std::uint64_t retryAfterMs = 250;

    /** Completed responses retained for polling (oldest dropped). */
    std::size_t retainDone = 1024;

    /**
     * When no worker can answer (all dead, or all shedding), answer
     * degradable jobs from the coordinator's own analytic-model tier
     * (tagged degraded:true) instead of failing. Mirrors the worker
     * flag of the same name; off by default for the same reason.
     */
    bool degradeToModel = false;

    /** Sweep fan-out of *local* degraded solves; 0 = auto. */
    unsigned jobsPerSweep = 0;

    /** Accept the test-only sleep job kind (forwarded to workers). */
    bool enableTestJobs = false;

    /**
     * Salt joined into the fleet-side identity key used for
     * sharding. Independent of worker cache salts — it routes, it
     * does not address storage.
     */
    std::string salt;

    /**
     * All misconfigurations, as human-readable "field = value"
     * messages (empty when the config is sound).
     */
    [[nodiscard]] std::vector<std::string> check() const;

    /** fatal() with the first check() error, if any. */
    void validate() const;
};

} // namespace ringsim::fleet

#endif // RINGSIM_FLEET_FLEET_CONFIG_HPP
