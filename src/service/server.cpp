#include "server.hpp"

#include <algorithm>
#include <optional>

#include "service/cache_key.hpp"
#include "util/logging.hpp"

namespace ringsim::service {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

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

} // namespace

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
      case JobState::TimedOut:
        return "timed_out";
      case JobState::Cancelled:
        return "cancelled";
    }
    return "?";
}

ServiceCore::ServiceCore(const ServiceConfig &cfg)
    : cfg_(cfg), latency_hist_(0, 60'000, 600)
{
    cfg_.validate();
    cache_ = std::make_unique<ResultCache>(cfg_.memCacheEntries,
                                           cfg_.cacheDir);
    if (cfg_.chaos.enabled()) {
        chaos_ =
            std::make_unique<fault::ServiceFaultInjector>(cfg_.chaos);
        cache_->setChaos(chaos_.get());
        warn("service: CHAOS injection enabled (seed %llu) — "
             "expect torn writes, garbled and dropped responses",
             static_cast<unsigned long long>(cfg_.chaos.seed));
    }
    pool_ = std::make_unique<runner::ExperimentRunner>(cfg_.workers);
    inform("service: %u workers, queue depth %zu, cache %zu entries%s",
           pool_->jobs(), cfg_.queueDepth, cfg_.memCacheEntries,
           cfg_.cacheDir.empty() ? "" : (" + disk " + cfg_.cacheDir)
                                            .c_str());
}

ServiceCore::~ServiceCore()
{
    pool_->waitAll();
}

bool
ServiceCore::shutdownRequested() const
{
    core::MutexLock lock(mutex_);
    return shutdown_;
}

std::string
ServiceCore::handleLine(const std::string &client,
                        const std::string &line)
{
    util::JsonValue req;
    std::string parse_error;
    if (!tryParseJson(line, &req, &parse_error)) {
        core::MutexLock lock(mutex_);
        bad_requests_.inc();
        return errorResponse(nullptr, "bad request: " + parse_error)
            .dump();
    }
    if (!req.isObject()) {
        core::MutexLock lock(mutex_);
        bad_requests_.inc();
        return errorResponse(nullptr,
                             "bad request: expected a JSON object")
            .dump();
    }
    std::vector<std::string> errors;
    std::string op = req.getString("op", "", &errors);
    if (op == "ping") {
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("ping"));
        return o.dump();
    }
    if (op == "submit")
        return handleSubmit(client, req);
    if (op == "poll")
        return handlePoll(req);
    if (op == "cancel")
        return handleCancel(req);
    if (op == "statsz")
        return handleStatsz();
    if (op == "shutdown") {
        {
            core::MutexLock lock(mutex_);
            shutdown_ = true;
        }
        done_cv_.notify_all();
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("shutdown"));
        return o.dump();
    }
    core::MutexLock lock(mutex_);
    bad_requests_.inc();
    return errorResponse(nullptr,
                         "op = '" + op +
                             "': expected ping, submit, poll, "
                             "cancel, statsz or shutdown")
        .dump();
}

std::string
ServiceCore::handleSubmit(const std::string &client,
                          const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::string who = req.getString("client", client, &errors);
    bool wait = req.getBool("wait", false, &errors);
    const util::JsonValue *job = req.find("job");
    if (!job) {
        core::MutexLock lock(mutex_);
        bad_requests_.inc();
        return errorResponse("submit", "job = <missing>: a submit "
                                       "needs a job object")
            .dump();
    }
    JobSpec spec;
    std::string parse_error;
    if (!JobSpec::tryParse(*job, cfg_.enableTestJobs, &spec,
                           &parse_error) ||
        !errors.empty()) {
        core::MutexLock lock(mutex_);
        bad_requests_.inc();
        return errorResponse("submit", parse_error.empty()
                                           ? errors.front()
                                           : parse_error)
            .dump();
    }

    std::string key;
    if (spec.cacheable()) {
        key = cacheKey(spec.canonical().dump(), cfg_.salt);
        if (std::optional<std::string> hit = cache_->get(key)) {
            // A corrupt disk entry must recompute, not error out.
            util::JsonValue result;
            std::string cache_error;
            if (tryParseJson(*hit, &result, &cache_error)) {
                std::uint64_t id;
                {
                    core::MutexLock lock(mutex_);
                    submitted_.inc();
                    cache_answers_.inc();
                    id = next_id_++;
                }
                util::JsonValue o = util::JsonValue::object();
                o.set("ok", util::JsonValue::boolean(true));
                o.set("op", util::JsonValue::string("submit"));
                o.set("id", util::JsonValue::integer(id));
                o.set("state", util::JsonValue::string("done"));
                o.set("cached", util::JsonValue::boolean(true));
                o.set("key", util::JsonValue::string(key));
                o.set("result", std::move(result));
                return o.dump();
            }
            warn("service: dropping unparsable cache entry %s: %s",
                 key.c_str(), cache_error.c_str());
        }
    }

    // Admission decision under the lock; the shed/degraded responses
    // (and the degraded-model solve itself) compose outside it.
    std::uint64_t id = 0;
    bool shed = false;
    bool try_degrade = false;
    bool coalesced = false;
    std::string coalesced_state;
    std::size_t busy = 0;
    std::uint64_t factor = 1;
    {
        core::MutexLock lock(mutex_);
        submitted_.inc();
        // Single-flight: an identical cacheable spec already admitted
        // and not yet terminal answers this submit too — attach to
        // the leader's id instead of executing twice. Consumes no
        // admission slot, so coalescing keeps working under overload
        // (exactly when duplicate retries pile up).
        if (!key.empty()) {
            auto flight = inflight_.find(key);
            if (flight != inflight_.end()) {
                auto leader = jobs_.find(flight->second);
                if (leader != jobs_.end() &&
                    (leader->second.state == JobState::Queued ||
                     leader->second.state == JobState::Running)) {
                    coalesced_.inc();
                    coalesced = true;
                    id = flight->second;
                    coalesced_state =
                        jobStateName(leader->second.state);
                } else {
                    // finishLocked erases terminal leaders; a stale
                    // entry here means the record was evicted.
                    inflight_.erase(flight);
                }
            }
        }
        if (coalesced) {
            // Fall through to the wait loop (or the async response)
            // below with the leader's id.
        } else if (active_ >= cfg_.queueDepth) {
            shed = true;
            shed_.inc();
            // Scale the hint with how many "pool drains" of work are
            // already queued: a deeper backlog earns a longer backoff.
            std::size_t queued = active_ - std::min<std::size_t>(
                                               active_, pool_->jobs());
            factor = 1 + queued / std::max(1u, pool_->jobs());
            busy = active_;
            if (cfg_.degradeToModel && spec.allowDegraded &&
                spec.degradable()) {
                try_degrade = true;
                id = next_id_++;
            }
        } else {
            admitted_.inc();
            ++active_;
            id = next_id_++;
            JobRecord rec;
            rec.id = id;
            rec.client = who;
            rec.spec = spec;
            rec.key = key;
            rec.enqueued = Clock::now();
            jobs_.emplace(id, std::move(rec));

            // Find (or open) this client's FIFO. The client set is
            // tiny — a linear scan keeps the visit order
            // deterministic.
            auto it = std::find_if(queues_.begin(), queues_.end(),
                                   [&](const ClientQueue &q) {
                                       return q.name == who;
                                   });
            if (it == queues_.end()) {
                queues_.push_back(ClientQueue{who, {}});
                it = std::prev(queues_.end());
            }
            it->pending.push_back(id);
            if (!key.empty())
                inflight_[key] = id;
        }
    }

    if (shed) {
        if (try_degrade) {
            // Model-tier fallback: answer in milliseconds on this
            // connection's thread instead of shedding. The estimate
            // is never cached — the exact answer should still be
            // computed (and memoized) on a calm retry.
            try {
                std::string answer =
                    degradedAnswer(spec, id, cfg_.jobsPerSweep);
                core::MutexLock lock(mutex_);
                degraded_.inc();
                return answer;
            } catch (const std::exception &e) {
                warn("service: degraded fallback failed: %s",
                     e.what());
            }
        }
        util::JsonValue o =
            errorResponse("submit",
                          strprintf("overloaded: %zu of %zu "
                                    "slots busy",
                                    busy, cfg_.queueDepth));
        o.set("retry_after_ms",
              util::JsonValue::integer(cfg_.retryAfterMs * factor +
                                       retryJitter(who)));
        return o.dump();
    }

    if (!coalesced)
        pool_->submit([this]() { runOne(); });

    if (!wait) {
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("submit"));
        o.set("id", util::JsonValue::integer(id));
        o.set("state", util::JsonValue::string(
                           coalesced ? coalesced_state.c_str()
                                     : "queued"));
        o.set("cached", util::JsonValue::boolean(false));
        if (coalesced)
            o.set("coalesced", util::JsonValue::boolean(true));
        if (!key.empty())
            o.set("key", util::JsonValue::string(key));
        return o.dump();
    }

    // Synchronous submit: block this connection until the job leaves
    // the pool (or the lazy watchdog declares it overdue).
    core::UniqueLock lock(mutex_);
    for (;;) {
        reapOverdueLocked(Clock::now());
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            return errorResponse("submit",
                                 strprintf("id = %llu: record "
                                           "evicted before wait "
                                           "finished",
                                           static_cast<unsigned long
                                                       long>(id)))
                .dump();
        }
        if (it->second.state != JobState::Queued &&
            it->second.state != JobState::Running) {
            util::JsonValue o = jobJsonLocked(it->second);
            o.set("op", util::JsonValue::string("submit"));
            if (coalesced)
                o.set("coalesced", util::JsonValue::boolean(true));
            return o.dump();
        }
        done_cv_.wait_for(lock.native(),
                          std::chrono::milliseconds(50));
    }
}

std::string
ServiceCore::handlePoll(const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::uint64_t id = req.getU64("id", 0, &errors);

    // First pass under the lock: either render the job's state, or —
    // for the first poll of a watchdog-abandoned degradable job —
    // claim the degradation escalation and fall through to compute
    // the model estimate off-lock.
    JobSpec degrade_spec;
    {
        core::MutexLock lock(mutex_);
        if (!errors.empty() || id == 0) {
            bad_requests_.inc();
            return errorResponse("poll",
                                 errors.empty()
                                     ? "id = 0: a poll needs the "
                                       "id a submit returned"
                                     : errors.front())
                .dump();
        }
        reapOverdueLocked(Clock::now());
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            return errorResponse(
                       "poll",
                       strprintf("id = %llu: unknown or expired job",
                                 static_cast<unsigned long long>(id)))
                .dump();
        }
        // degradeStarted claims the escalation exactly once across
        // concurrent pollers.
        if (it->second.state == JobState::TimedOut &&
            cfg_.degradeToModel && it->second.spec.allowDegraded &&
            it->second.spec.degradable() &&
            !it->second.degradeStarted) {
            it->second.degradeStarted = true;
            degrade_spec = it->second.spec;
        } else {
            util::JsonValue o = jobJsonLocked(it->second);
            o.set("op", util::JsonValue::string("poll"));
            return o.dump();
        }
    }

    // Watchdog escalation: compute the model-tier estimate outside
    // the lock so other requests keep flowing, then attach it (if
    // the record still exists) so the caller gets a partial answer
    // instead of a bare timeout.
    std::string result, error;
    try {
        result = executeDegraded(degrade_spec, cfg_.jobsPerSweep)
                     .dump();
    } catch (const std::exception &e) {
        error = e.what();
    }

    core::MutexLock lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return errorResponse(
                   "poll",
                   strprintf("id = %llu: record evicted during "
                             "degraded escalation",
                             static_cast<unsigned long long>(id)))
            .dump();
    }
    if (error.empty()) {
        degraded_.inc();
        it->second.degraded = true;
        it->second.result = std::move(result);
    } else {
        warn("service: degraded escalation for job %llu failed: %s",
             static_cast<unsigned long long>(id), error.c_str());
    }
    util::JsonValue o = jobJsonLocked(it->second);
    o.set("op", util::JsonValue::string("poll"));
    return o.dump();
}

std::string
ServiceCore::handleCancel(const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::uint64_t id = req.getU64("id", 0, &errors);
    core::MutexLock lock(mutex_);
    if (!errors.empty() || id == 0) {
        bad_requests_.inc();
        return errorResponse("cancel",
                             errors.empty()
                                 ? "id = 0: a cancel needs the id a "
                                   "submit returned"
                                 : errors.front())
            .dump();
    }
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        return errorResponse("cancel",
                             strprintf("id = %llu: unknown or "
                                       "expired job",
                                       static_cast<unsigned long long>(
                                           id)))
            .dump();
    }
    JobRecord &rec = it->second;
    if (rec.state == JobState::Queued ||
        rec.state == JobState::Running) {
        // A queued job never runs (its pool task releases the slot
        // when it drains); a running one is abandoned like a
        // watchdog timeout — the thread finishes and is discarded.
        cancelled_.inc();
        finishLocked(rec, JobState::Cancelled, "cancelled by request");
        done_cv_.notify_all();
    }
    util::JsonValue o = jobJsonLocked(rec);
    o.set("op", util::JsonValue::string("cancel"));
    return o.dump();
}

void
ServiceCore::clientGone(const std::string &client)
{
    core::MutexLock lock(mutex_);
    for (const ClientQueue &q : queues_) {
        if (q.name != client)
            continue;
        for (std::uint64_t id : q.pending) {
            auto it = jobs_.find(id);
            if (it == jobs_.end() ||
                it->second.state != JobState::Queued)
                continue;
            cancelled_.inc();
            finishLocked(it->second, JobState::Cancelled,
                         "cancelled: client disconnected");
        }
    }
    done_cv_.notify_all();
}

std::uint64_t
ServiceCore::retryJitter(const std::string &client) const
{
    // Deterministic per-client spread in [0, retryAfterMs) so a
    // thundering herd of shed clients desynchronizes instead of all
    // retrying on the same beat. Same client => same jitter, so the
    // backoff stays reproducible in tests.
    if (cfg_.retryAfterMs == 0)
        return 0;
    return fingerprint64(client, 0x6a09e667f3bcc908ULL) %
           cfg_.retryAfterMs;
}

std::string
ServiceCore::handleStatsz()
{
    CacheStats cs = cache_->stats();
    core::MutexLock lock(mutex_);
    reapOverdueLocked(Clock::now());

    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("op", util::JsonValue::string("statsz"));
    o.set("workers", util::JsonValue::integer(pool_->jobs()));
    o.set("queue_depth", util::JsonValue::integer(cfg_.queueDepth));
    o.set("active", util::JsonValue::integer(active_));
    o.set("running", util::JsonValue::integer(running_.size()));
    o.set("submitted", util::JsonValue::integer(submitted_.value()));
    o.set("admitted", util::JsonValue::integer(admitted_.value()));
    o.set("shed", util::JsonValue::integer(shed_.value()));
    o.set("completed", util::JsonValue::integer(completed_.value()));
    o.set("failed", util::JsonValue::integer(failed_.value()));
    o.set("timed_out", util::JsonValue::integer(timed_out_.value()));
    o.set("late_completions",
          util::JsonValue::integer(late_completions_.value()));
    o.set("cache_answers",
          util::JsonValue::integer(cache_answers_.value()));
    o.set("bad_requests",
          util::JsonValue::integer(bad_requests_.value()));
    o.set("cancelled", util::JsonValue::integer(cancelled_.value()));
    o.set("deadline_expired",
          util::JsonValue::integer(deadline_expired_.value()));
    o.set("degraded", util::JsonValue::integer(degraded_.value()));
    o.set("coalesced", util::JsonValue::integer(coalesced_.value()));

    util::JsonValue cache = util::JsonValue::object();
    cache.set("mem_hits", util::JsonValue::integer(cs.memHits));
    cache.set("disk_hits", util::JsonValue::integer(cs.diskHits));
    cache.set("misses", util::JsonValue::integer(cs.misses));
    cache.set("stores", util::JsonValue::integer(cs.stores));
    cache.set("evictions", util::JsonValue::integer(cs.evictions));
    cache.set("disk_errors", util::JsonValue::integer(cs.diskErrors));
    cache.set("quarantined",
              util::JsonValue::integer(cs.quarantined));
    cache.set("scanned", util::JsonValue::integer(cs.scanned));
    cache.set("tmp_cleaned", util::JsonValue::integer(cs.tmpCleaned));
    o.set("cache", std::move(cache));

    if (chaos_) {
        fault::ServiceFaultCounters fc = chaos_->counters();
        util::JsonValue chaos = util::JsonValue::object();
        chaos.set("seed", util::JsonValue::integer(cfg_.chaos.seed));
        chaos.set("slow_writes",
                  util::JsonValue::integer(fc.slowWrites));
        chaos.set("disconnects",
                  util::JsonValue::integer(fc.disconnects));
        chaos.set("garbles", util::JsonValue::integer(fc.garbles));
        chaos.set("torn_writes",
                  util::JsonValue::integer(fc.tornWrites));
        chaos.set("bit_flips", util::JsonValue::integer(fc.bitFlips));
        o.set("chaos", std::move(chaos));
    }

    util::JsonValue lat = util::JsonValue::object();
    lat.set("count", util::JsonValue::integer(latency_ms_.count()));
    lat.set("mean_ms", util::JsonValue::number(latency_ms_.mean()));
    lat.set("min_ms", util::JsonValue::number(
                          latency_ms_.count() ? latency_ms_.min() : 0));
    lat.set("max_ms", util::JsonValue::number(
                          latency_ms_.count() ? latency_ms_.max() : 0));
    lat.set("p50_ms",
            util::JsonValue::number(latency_hist_.quantile(0.50)));
    lat.set("p90_ms",
            util::JsonValue::number(latency_hist_.quantile(0.90)));
    lat.set("p99_ms",
            util::JsonValue::number(latency_hist_.quantile(0.99)));
    o.set("latency", std::move(lat));
    return o.dump();
}

std::uint64_t
ServiceCore::pickNextLocked()
{
    // Round-robin: resume the sweep one past the last served client,
    // take the head of the first non-empty FIFO.
    const std::size_t n = queues_.size();
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t i = (rr_next_ + step) % n;
        if (!queues_[i].pending.empty()) {
            std::uint64_t id = queues_[i].pending.front();
            queues_[i].pending.pop_front();
            rr_next_ = (i + 1) % n;
            return id;
        }
    }
    return 0;
}

void
ServiceCore::runOne()
{
    std::uint64_t id = 0;
    JobSpec spec;
    std::string key;
    {
        core::MutexLock lock(mutex_);
        id = pickNextLocked();
        // A record can vanish before this task picks it up (reaped
        // waiter, evicted job) or stop being runnable (cancelled or
        // deadline-expired while queued), but the task still owns one
        // admission slot — leaking it would shrink the effective
        // queue depth permanently.
        auto it = id != 0 ? jobs_.find(id) : jobs_.end();
        if (it == jobs_.end() ||
            it->second.state != JobState::Queued) {
            --active_;
            done_cv_.notify_all();
            return;
        }
        it->second.state = JobState::Running;
        it->second.started = Clock::now();
        running_.push_back(id);
        spec = it->second.spec;
        key = it->second.key;
    }

    std::string result, error;
    bool ok = true;
    try {
        result = executeJob(spec, cfg_.jobsPerSweep).dump();
    } catch (const std::exception &e) {
        ok = false;
        error = e.what();
    }

    // Publish to the cache *before* taking the lock: the disk write
    // (and any chaos stall on it) must not serialize the whole
    // service, and memoization-before-visibility keeps the warm-hit
    // guarantee — a waiter that observes Done can resubmit and hit.
    // A job cancelled or abandoned while running still publishes:
    // its result is deterministic and correct, only unclaimed.
    if (ok && !key.empty())
        cache_->put(key, result);

    core::MutexLock lock(mutex_);
    running_.erase(std::remove(running_.begin(), running_.end(), id),
                   running_.end());
    --active_;
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        done_cv_.notify_all();
        return;
    }
    JobRecord &rec = it->second;
    if (rec.state == JobState::TimedOut ||
        rec.state == JobState::Cancelled) {
        // The lazy watchdog (or an explicit cancel) already answered
        // for this job; the thread was merely abandoned, not
        // interrupted. Count and discard.
        late_completions_.inc();
        done_cv_.notify_all();
        return;
    }
    double ms = msSince(rec.enqueued, Clock::now());
    latency_ms_.add(ms);
    latency_hist_.add(ms);
    if (ok) {
        completed_.inc();
        finishLocked(rec, JobState::Done, std::move(result));
    } else {
        failed_.inc();
        finishLocked(rec, JobState::Failed, std::move(error));
    }
    done_cv_.notify_all();
}

void
ServiceCore::reapOverdueLocked(Clock::time_point now)
{
    // Running jobs: the watchdog budget counts from dispatch, a
    // deadline from admission. Either one expiring abandons the
    // thread (it cannot be interrupted; the late completion is
    // counted and discarded).
    for (std::uint64_t id : running_) {
        auto it = jobs_.find(id);
        if (it == jobs_.end() ||
            it->second.state != JobState::Running)
            continue;
        JobRecord &rec = it->second;
        if (cfg_.watchdog.count() > 0 &&
            now - rec.started >= cfg_.watchdog) {
            timed_out_.inc();
            finishLocked(rec, JobState::TimedOut,
                         strprintf("watchdog: exceeded %lld ms",
                                   static_cast<long long>(
                                       cfg_.watchdog.count())));
            continue;
        }
        std::uint64_t dl = rec.spec.deadlineMs;
        if (dl > 0 &&
            now - rec.enqueued >= std::chrono::milliseconds(dl)) {
            timed_out_.inc();
            deadline_expired_.inc();
            finishLocked(rec, JobState::TimedOut,
                         strprintf("deadline: exceeded %llu ms "
                                   "while running",
                                   static_cast<unsigned long long>(
                                       dl)));
        }
    }

    // Queued jobs: a deadline that expires before dispatch cancels
    // the job in place. The id stays in its client FIFO — the pool
    // task that eventually picks it sees a non-Queued record and
    // just releases the admission slot.
    for (const ClientQueue &q : queues_) {
        for (std::uint64_t id : q.pending) {
            auto it = jobs_.find(id);
            if (it == jobs_.end() ||
                it->second.state != JobState::Queued)
                continue;
            JobRecord &rec = it->second;
            std::uint64_t dl = rec.spec.deadlineMs;
            if (dl == 0 ||
                now - rec.enqueued < std::chrono::milliseconds(dl))
                continue;
            cancelled_.inc();
            deadline_expired_.inc();
            finishLocked(rec, JobState::Cancelled,
                         strprintf("deadline: %llu ms expired "
                                   "before dispatch",
                                   static_cast<unsigned long long>(
                                       dl)));
        }
    }
    done_cv_.notify_all();
}

void
ServiceCore::finishLocked(JobRecord &rec, JobState state,
                          std::string result_or_error)
{
    // The leader is terminal: detach its single-flight entry so the
    // next identical submit starts (or cache-hits) fresh. Waiters
    // blocked on this id read the terminal answer below — a
    // cancelled or timed-out leader answers them with that state
    // rather than orphaning them.
    if (!rec.key.empty()) {
        auto flight = inflight_.find(rec.key);
        if (flight != inflight_.end() && flight->second == rec.id)
            inflight_.erase(flight);
    }
    rec.state = state;
    if (state == JobState::Done)
        rec.result = std::move(result_or_error);
    else
        rec.error = std::move(result_or_error);
    done_order_.push_back(rec.id);
    trimDoneLocked();
}

void
ServiceCore::trimDoneLocked()
{
    // A timed-out record whose thread is still running (id still in
    // running_) is re-queued instead of erased — the late completion
    // needs the record. The scan bound keeps this a single pass.
    std::size_t scan = done_order_.size();
    while (done_order_.size() > cfg_.retainDone && scan-- > 0) {
        std::uint64_t victim = done_order_.front();
        done_order_.pop_front();
        bool thread_live = std::find(running_.begin(), running_.end(),
                                     victim) != running_.end();
        if (thread_live) {
            done_order_.push_back(victim);
            continue;
        }
        jobs_.erase(victim);
    }
}

util::JsonValue
ServiceCore::jobJsonLocked(const JobRecord &rec) const
{
    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("id", util::JsonValue::integer(rec.id));
    o.set("state",
          util::JsonValue::string(jobStateName(rec.state)));
    o.set("cached", util::JsonValue::boolean(false));
    if (!rec.key.empty())
        o.set("key", util::JsonValue::string(rec.key));
    if (rec.state == JobState::Done ||
        (rec.degraded && !rec.result.empty())) {
        // A degraded estimate rides along even when the state is
        // timed_out: the caller sees both the abandonment and the
        // model-tier partial answer.
        util::JsonValue result;
        std::string parse_error;
        if (tryParseJson(rec.result, &result, &parse_error))
            o.set("result", std::move(result));
        else
            o.set("error", util::JsonValue::string(
                               "internal: stored result unparsable: " +
                               parse_error));
    }
    if (rec.degraded)
        o.set("degraded", util::JsonValue::boolean(true));
    if (rec.state == JobState::Failed ||
        rec.state == JobState::TimedOut ||
        rec.state == JobState::Cancelled) {
        o.set("error", util::JsonValue::string(rec.error));
    }
    return o;
}

} // namespace ringsim::service
