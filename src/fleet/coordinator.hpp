/**
 * @file
 * FleetCore: the coordinator behind ringsim_fleetd.
 *
 * Speaks the same NDJSON protocol as a worker daemon (submit / poll /
 * ping / statsz / shutdown), so every existing client — benches,
 * ringsim_submit, the smoke scripts — can point at a fleet without
 * changes. Behind the socket it owns no simulator: it routes.
 *
 *  - Every job is identified by the 128-bit cache key of its
 *    canonical spec (the same identity workers memoize under), and
 *    that key picks the job's worker shard deterministically
 *    (fleet/shard) — equal specs land on the same warm cache.
 *  - Duplicate in-flight specs therefore meet on one worker, whose
 *    own single-flight (ServiceCore) runs them once; the coordinator
 *    keeps no flight table of its own and only counts the forwards a
 *    worker answered as coalesced.
 *  - Sweep jobs split into per-block subjobs fanned out across the
 *    fleet through an ExperimentRunner pool and reassembled
 *    byte-identically to a direct renderFigure() run (the PR 1 output
 *    contract is what makes this legal).
 *  - A worker that dies mid-job is detected by its broken socket; the
 *    job requeues onto the next shard in the deterministic failover
 *    order. When no worker can answer at all, degradable jobs fall
 *    back to the coordinator's own analytic-model tier (--degrade).
 *  - statsz aggregates: fleet-level counters, a per-worker section
 *    (liveness + each worker's own statsz), and summed totals.
 *
 * Submits are answered synchronously on the connection's thread —
 * the fleet's concurrency lives in the worker daemons, so the
 * coordinator has no queue to manage, only sockets to wait on. An
 * explicit "wait": false still gets its final answer in the submit
 * response; poll remains available for re-reading it.
 */

#ifndef RINGSIM_FLEET_COORDINATOR_HPP
#define RINGSIM_FLEET_COORDINATOR_HPP

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "fleet/fleet_config.hpp"
#include "fleet/router.hpp"
#include "service/job.hpp"
#include "service/line_service.hpp"
#include "util/json.hpp"

namespace ringsim::fleet {

class FleetCore : public service::LineService
{
  public:
    explicit FleetCore(const FleetConfig &cfg);

    std::string handleLine(const std::string &client,
                           const std::string &line) override
        EXCLUDES(mutex_);
    bool shutdownRequested() const override EXCLUDES(mutex_);
    void clientGone(const std::string &client) override;

    /** The routing layer (tests, statsz). */
    WorkerPool &pool() { return pool_; }

  private:
    std::string handleSubmit(const std::string &client,
                             const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handlePoll(const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handleStatsz() EXCLUDES(mutex_);

    /** Forward @p job whole to @p identity's shard (with failover). */
    std::string forwardWhole(const util::JsonValue &job,
                             const service::JobSpec &spec,
                             const std::string &identity,
                             std::uint64_t id) EXCLUDES(mutex_);

    /**
     * Split a whole-figure sweep into per-block subjobs, fan them out
     * across the fleet, reassemble byte-identically.
     */
    std::string splitSweep(const util::JsonValue &job,
                           const service::JobSpec &spec,
                           std::uint64_t id) EXCLUDES(mutex_);

    /**
     * Last resort when no worker answered: local model-tier degrade
     * when allowed, else an error with a retry_after_ms hint.
     */
    std::string degradeOrFail(const service::JobSpec &spec,
                              std::uint64_t id,
                              const std::string &why)
        EXCLUDES(mutex_);

    /**
     * Count @p reply (a worker's answer to one forward, whole or
     * split part) as coalesced when the worker attached it to an
     * identical job already in flight.
     */
    void noteAnswered(const util::JsonValue &reply) EXCLUDES(mutex_);

    void retain(std::uint64_t id, const std::string &response)
        EXCLUDES(mutex_);

    FleetConfig cfg_;
    WorkerPool pool_;

    mutable core::Mutex mutex_;
    bool shutdown_ GUARDED_BY(mutex_) = false;
    std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;

    std::uint64_t submitted_ GUARDED_BY(mutex_) = 0;
    std::uint64_t forwarded_ GUARDED_BY(mutex_) = 0;
    std::uint64_t coalesced_ GUARDED_BY(mutex_) = 0;
    std::uint64_t sweep_splits_ GUARDED_BY(mutex_) = 0;
    std::uint64_t parts_forwarded_ GUARDED_BY(mutex_) = 0;
    std::uint64_t degraded_ GUARDED_BY(mutex_) = 0;
    std::uint64_t failures_ GUARDED_BY(mutex_) = 0;
    std::uint64_t bad_requests_ GUARDED_BY(mutex_) = 0;

    /// Finished responses for poll. Keyed lookup only (never
    /// iterated); done_order_ drives retention trimming.
    std::unordered_map<std::uint64_t, std::string> done_
        GUARDED_BY(mutex_);
    std::deque<std::uint64_t> done_order_ GUARDED_BY(mutex_);
};

} // namespace ringsim::fleet

#endif // RINGSIM_FLEET_COORDINATOR_HPP
