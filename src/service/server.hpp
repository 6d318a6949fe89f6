/**
 * @file
 * Experiment-service core: admission, scheduling and memoization.
 *
 * ServiceCore is the transport-independent heart of ringsim_serve. It
 * speaks one NDJSON request per line through handleLine() and returns
 * one NDJSON response line, so the socket server is a thin pump and
 * tests can drive the whole service in-process.
 *
 * Request shapes (all objects, one per line):
 *
 *   {"op":"ping"}
 *   {"op":"submit","client":"c1","wait":false,"job":{...}}
 *   {"op":"poll","id":7}
 *   {"op":"cancel","id":7}
 *   {"op":"statsz"}
 *   {"op":"shutdown"}
 *
 * Scheduling: admitted jobs are executed by a runner::ExperimentRunner
 * pool of ServiceConfig::workers threads. Admission is bounded —
 * (queued + running) never exceeds queueDepth; a submit over the bound
 * is shed with {"ok":false,"error":"overloaded...","retry_after_ms":N}
 * where the hint scales with occupancy. Dispatch is round-robin over
 * clients (each pool slot picks the next job from the least-recently
 * served client's FIFO), so one chatty client cannot starve others.
 *
 * Memoization: a cacheable job's canonical spec is hashed (cacheKey)
 * and looked up in the two-tier ResultCache before admission; a hit
 * answers instantly without consuming a pool slot. Results are stored
 * on completion. The determinism contract (PR 1/3: byte-identical
 * results at any worker count) is what makes this legal.
 *
 * Watchdog: jobs running past ServiceConfig::watchdog are reported
 * timed_out. Detection is lazy — overdue jobs are marked when any
 * poll/statsz/wait touches the table — because a compute thread cannot
 * be interrupted; a late completion is counted and discarded.
 *
 * Deadlines and cancellation: a job may carry deadline_ms (wall clock
 * from admission). A queued job past its deadline is cancelled before
 * it ever runs; a running one is abandoned exactly like a watchdog
 * timeout. {"op":"cancel","id":N} cancels explicitly, and a client
 * that disconnects takes its still-queued jobs with it
 * (clientGone()). Cancelled/expired queued jobs release their
 * admission slot when their pool task drains.
 *
 * Degradation: with ServiceConfig::degradeToModel, a run/sweep/model
 * submit that admission would shed is answered immediately from the
 * analytic-model tier, tagged degraded:true with an error bound; a
 * watchdog-abandoned job surfaces the same estimate as a partial
 * result on the next poll. Degraded answers are never cached.
 *
 * Concurrency: one core::Mutex guards every piece of job state (the
 * annotations below are checked by Clang Thread Safety Analysis, see
 * core/thread_annotations.hpp and DESIGN.md §15). Job execution, the
 * degraded-model solve and cache publication all happen *outside*
 * the lock — the locked sections are bookkeeping only. The lifecycle
 * transitions those sections implement are model-checked exhaustively
 * by the src/verify/ service schedule explorer.
 */

#ifndef RINGSIM_SERVICE_SERVER_HPP
#define RINGSIM_SERVICE_SERVER_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.hpp"
#include "runner/experiment_runner.hpp"
#include "service/config.hpp"
#include "service/job.hpp"
#include "service/line_service.hpp"
#include "service/result_cache.hpp"
#include "stats/stats.hpp"

namespace ringsim::service {

/** Lifecycle of one admitted job. */
enum class JobState {
    Queued,
    Running,
    Done,
    Failed,
    TimedOut,
    Cancelled,
};

/** Printable state name ("queued", ...). */
const char *jobStateName(JobState s);

class ServiceCore : public LineService
{
  public:
    explicit ServiceCore(const ServiceConfig &cfg);

    /** Drains the pool (running jobs finish; queued jobs still run). */
    ~ServiceCore() override;

    ServiceCore(const ServiceCore &) = delete;
    ServiceCore &operator=(const ServiceCore &) = delete;

    /**
     * Handle one NDJSON request line from @p client (the connection's
     * identity, used for fairness when the request names no "client")
     * and return the one-line response (no trailing newline).
     */
    std::string handleLine(const std::string &client,
                           const std::string &line) override
        EXCLUDES(mutex_);

    /** True once a shutdown request has been accepted. */
    bool shutdownRequested() const override EXCLUDES(mutex_);

    /**
     * The connection identified by @p client is gone: cancel its
     * still-queued jobs (running jobs finish — their results are
     * cacheable even if nobody is left to read them).
     */
    void clientGone(const std::string &client) override
        EXCLUDES(mutex_);

    /** The cache (exposed for tests and statsz). */
    const ResultCache &cache() const { return *cache_; }

    /** The chaos injector, or nullptr when chaos is off. */
    fault::ServiceFaultInjector *chaosInjector() override
    {
        return chaos_.get();
    }

  private:
    struct JobRecord
    {
        std::uint64_t id = 0;
        std::string client;
        JobSpec spec;
        std::string key; //!< cache key ("" when not cacheable)
        JobState state = JobState::Queued;
        std::string result; //!< dumped result object (Done/degraded)
        std::string error;  //!< failure text (Failed/TimedOut/...)
        bool degraded = false;       //!< result is a model estimate
        bool degradeStarted = false; //!< escalation claimed (once)
        std::chrono::steady_clock::time_point enqueued;
        std::chrono::steady_clock::time_point started;
    };

    std::string handleSubmit(const std::string &client,
                             const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handlePoll(const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handleCancel(const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handleStatsz() EXCLUDES(mutex_);

    /** Deterministic per-client retry jitter in [0, retryAfterMs). */
    std::uint64_t retryJitter(const std::string &client) const;

    /** Pool slot body: pick the next job fairly and execute it. */
    void runOne() EXCLUDES(mutex_);

    /** Pick the next job id round-robin over clients. */
    std::uint64_t pickNextLocked() REQUIRES(mutex_);

    /**
     * Mark running jobs past the watchdog budget or their deadline,
     * and cancel queued jobs whose deadline expired.
     */
    void reapOverdueLocked(std::chrono::steady_clock::time_point now)
        REQUIRES(mutex_);

    /** Retire @p rec into the done set. */
    void finishLocked(JobRecord &rec, JobState state,
                      std::string result_or_error) REQUIRES(mutex_);

    /** Drop oldest retained records beyond cfg_.retainDone. */
    void trimDoneLocked() REQUIRES(mutex_);

    /** Render a job's poll/submit view. */
    util::JsonValue jobJsonLocked(const JobRecord &rec) const
        REQUIRES(mutex_);

    const ServiceConfig cfg_;
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<fault::ServiceFaultInjector> chaos_;
    std::unique_ptr<runner::ExperimentRunner> pool_;

    mutable core::Mutex mutex_;
    std::condition_variable done_cv_;
    bool shutdown_ GUARDED_BY(mutex_) = false;
    std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;

    /** Keyed lookup only (never iterated — see the lint rule). */
    std::unordered_map<std::uint64_t, JobRecord> jobs_
        GUARDED_BY(mutex_);

    /**
     * Single-flight index: cache key -> id of the one admitted job
     * computing it. A cacheable submit whose key is already in
     * flight attaches to that job (same id, "coalesced": true, no
     * admission slot) instead of executing again; the entry is
     * erased when the leader reaches any terminal state, at which
     * point waiters read the leader's answer — including a
     * cancellation or timeout, so a dead leader answers its waiters
     * rather than orphaning them. Keyed lookup only (never
     * iterated — see the lint rule).
     */
    std::unordered_map<std::string, std::uint64_t> inflight_
        GUARDED_BY(mutex_);

    /** Ids of running jobs, in start order (for the lazy watchdog). */
    std::vector<std::uint64_t> running_ GUARDED_BY(mutex_);

    /** Retained finished ids, oldest first (for trimDoneLocked). */
    std::deque<std::uint64_t> done_order_ GUARDED_BY(mutex_);

    /** Per-client pending FIFOs, visited round-robin. */
    struct ClientQueue
    {
        std::string name;
        std::deque<std::uint64_t> pending;
    };
    std::vector<ClientQueue> queues_ GUARDED_BY(mutex_);
    std::size_t rr_next_ GUARDED_BY(mutex_) = 0;

    /** queued + running (admission bound). */
    std::size_t active_ GUARDED_BY(mutex_) = 0;

    // Counters for /statsz.
    stats::Counter submitted_ GUARDED_BY(mutex_);
    stats::Counter admitted_ GUARDED_BY(mutex_);
    stats::Counter shed_ GUARDED_BY(mutex_);
    stats::Counter completed_ GUARDED_BY(mutex_);
    stats::Counter failed_ GUARDED_BY(mutex_);
    stats::Counter timed_out_ GUARDED_BY(mutex_);
    stats::Counter late_completions_ GUARDED_BY(mutex_);
    stats::Counter cache_answers_ GUARDED_BY(mutex_);
    stats::Counter bad_requests_ GUARDED_BY(mutex_);
    /** Explicit + disconnect cancellations. */
    stats::Counter cancelled_ GUARDED_BY(mutex_);
    /** Deadline expiries, queued or running. */
    stats::Counter deadline_expired_ GUARDED_BY(mutex_);
    /** Model-tier answers served. */
    stats::Counter degraded_ GUARDED_BY(mutex_);
    /** Submits attached to an identical in-flight job. */
    stats::Counter coalesced_ GUARDED_BY(mutex_);

    /** Job service latency (admission to completion), milliseconds. */
    stats::Sampler latency_ms_ GUARDED_BY(mutex_);
    stats::Histogram latency_hist_ GUARDED_BY(mutex_);
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_SERVER_HPP
