/**
 * @file
 * FleetCore tests against real worker daemons on Unix sockets.
 *
 * The coordinator is transport-independent (it implements the same
 * LineService interface the workers do), so the tests drive
 * FleetCore::handleLine directly and only the workers get sockets.
 * The load-bearing property is satellite (d) of the fleet PR: any
 * partition of a figure sweep across k workers must reassemble
 * byte-identically to a direct single-process run, faults on or off.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/coordinator.hpp"
#include "src/fleet/fleet_config.hpp"
#include "src/service/client.hpp"
#include "src/service/job.hpp"
#include "src/service/server.hpp"
#include "src/service/socket_server.hpp"
#include "src/util/json.hpp"

namespace ringsim::fleet {
namespace {

util::JsonValue
parse(const std::string &line)
{
    util::JsonValue v;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(line, &v, &error))
        << error << " in: " << line;
    return v;
}

/** Worker endpoints must be unique per process *and* per daemon —
 *  one test may run several fleets of several workers each. */
std::string
uniqueEndpoint()
{
    static std::atomic<int> counter{0};
    return testing::TempDir() + "/ringsim_fleet_test." +
           std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

service::ServiceConfig
workerConfig()
{
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queueDepth = 16;
    cfg.memCacheEntries = 64;
    cfg.enableTestJobs = true;
    return cfg;
}

/** One live worker daemon on a Unix socket, torn down on scope exit. */
class WorkerDaemon
{
  public:
    explicit WorkerDaemon(const service::ServiceConfig &cfg)
        : core_(cfg), endpoint_(uniqueEndpoint()),
          server_(core_, endpoint_)
    {
        std::string error;
        started_ = server_.tryStart(&error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            pump_ = std::thread([this]() { server_.serve(); });
    }

    ~WorkerDaemon()
    {
        if (!started_)
            return;
        service::ServiceClient client;
        std::string error, response;
        if (client.tryConnect(endpoint_, &error))
            (void)client.tryRequest("{\"op\":\"shutdown\"}",
                                    &response, &error);
        pump_.join();
    }

    const std::string &endpoint() const { return endpoint_; }

  private:
    service::ServiceCore core_;
    std::string endpoint_;
    service::SocketServer server_;
    bool started_ = false;
    std::thread pump_;
};

/** A coordinator over @p n fresh worker daemons. */
class Fleet
{
  public:
    explicit Fleet(std::size_t n, FleetConfig cfg = FleetConfig{},
                   const service::ServiceConfig &worker_cfg =
                       workerConfig())
    {
        for (std::size_t i = 0; i < n; ++i) {
            workers_.push_back(
                std::make_unique<WorkerDaemon>(worker_cfg));
            cfg.workers.push_back(workers_.back()->endpoint());
        }
        cfg.enableTestJobs = true;
        core_ = std::make_unique<FleetCore>(cfg);
    }

    util::JsonValue request(const std::string &line)
    {
        return parse(core_->handleLine("test-client", line));
    }

    /** Tear a worker down; its socket goes away with it. */
    void killWorker(std::size_t i) { workers_[i].reset(); }

    FleetCore &core() { return *core_; }

  private:
    std::vector<std::unique_ptr<WorkerDaemon>> workers_;
    std::unique_ptr<FleetCore> core_;
};

/** The reference run: same job executed directly, no fleet. */
std::string
directText(const std::string &job_json)
{
    util::JsonValue job;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(job_json, &job, &error)) << error;
    service::JobSpec spec;
    EXPECT_TRUE(service::JobSpec::tryParse(job, true, &spec, &error))
        << error;
    util::JsonValue result = service::executeJob(spec, 2);
    std::vector<std::string> errors;
    std::string text = result.getString("text", "", &errors);
    EXPECT_FALSE(text.empty());
    return text;
}

std::string
submitLine(const std::string &job_json)
{
    return "{\"op\":\"submit\",\"wait\":true,\"job\":" + job_json +
           "}";
}

constexpr const char *kSweepJob =
    "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
    "\"fast\":true}";

constexpr const char *kFaultySweepJob =
    "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
    "\"fast\":true,\"faults\":{\"corrupt_rate\":0.001,\"seed\":7,"
    "\"max_faults\":50}}";

constexpr const char *kModelJob =
    "{\"type\":\"model\",\"benchmark\":\"mp3d\",\"procs\":8,"
    "\"refs\":2000,\"fast\":true}";

TEST(FleetCore, PingAndBadOps)
{
    Fleet fleet(1);
    std::vector<std::string> errors;

    util::JsonValue ping = fleet.request("{\"op\":\"ping\"}");
    EXPECT_TRUE(ping.getBool("ok", false, &errors));
    EXPECT_EQ(ping.getString("role", "", &errors), "fleet");

    util::JsonValue bad = fleet.request("{\"op\":\"warp\"}");
    EXPECT_FALSE(bad.getBool("ok", true, &errors));

    util::JsonValue cancel =
        fleet.request("{\"op\":\"cancel\",\"id\":1}");
    EXPECT_FALSE(cancel.getBool("ok", true, &errors));
    EXPECT_NE(cancel.getString("error", "", &errors).find("worker"),
              std::string::npos);

    util::JsonValue garbled = fleet.request("not json");
    EXPECT_FALSE(garbled.getBool("ok", true, &errors));

    util::JsonValue no_job = fleet.request("{\"op\":\"submit\"}");
    EXPECT_FALSE(no_job.getBool("ok", true, &errors));
}

// Satellite (d): the partition property. For every fleet size the
// split sweep must be byte-identical to the direct run — same text,
// not just same numbers — with fault injection both off and on.
TEST(FleetCore, SplitSweepMatchesDirectRunAcrossFleetSizes)
{
    const std::string expected = directText(kSweepJob);
    const std::string expected_faulty = directText(kFaultySweepJob);
    ASSERT_NE(expected, expected_faulty)
        << "fault injection changed nothing; the faulty variant "
           "is not exercising a distinct code path";

    for (std::size_t k : {1u, 2u, 3u}) {
        Fleet fleet(k);
        std::vector<std::string> errors;

        util::JsonValue r = fleet.request(submitLine(kSweepJob));
        ASSERT_TRUE(r.getBool("ok", false, &errors))
            << "k=" << k << ": "
            << r.getString("error", "", &errors);
        EXPECT_EQ(r.getString("state", "", &errors), "done");
        EXPECT_GT(r.getU64("split", 0, &errors), 1u);
        const util::JsonValue *result = r.find("result");
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result->getString("kind", "", &errors), "sweep");
        EXPECT_EQ(result->getString("text", "", &errors), expected)
            << "fleet of " << k
            << " workers diverged from the direct run";

        util::JsonValue rf =
            fleet.request(submitLine(kFaultySweepJob));
        ASSERT_TRUE(rf.getBool("ok", false, &errors))
            << "k=" << k << " (faults): "
            << rf.getString("error", "", &errors);
        const util::JsonValue *fresult = rf.find("result");
        ASSERT_NE(fresult, nullptr);
        EXPECT_EQ(fresult->getString("text", "", &errors),
                  expected_faulty)
            << "fleet of " << k
            << " workers diverged from the direct faulty run";
    }
}

TEST(FleetCore, CsvSweepMatchesDirectRun)
{
    const std::string csv_job =
        "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
        "\"fast\":true,\"csv\":true}";
    const std::string expected = directText(csv_job);
    Fleet fleet(2);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(csv_job));
    ASSERT_TRUE(r.getBool("ok", false, &errors))
        << r.getString("error", "", &errors);
    const util::JsonValue *result = r.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->getString("text", "", &errors), expected);
}

TEST(FleetCore, RequeuesPartsAroundADeadWorker)
{
    Fleet fleet(3);
    fleet.killWorker(1);

    const std::string expected = directText(kSweepJob);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(kSweepJob));
    ASSERT_TRUE(r.getBool("ok", false, &errors))
        << r.getString("error", "", &errors);
    const util::JsonValue *result = r.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->getString("text", "", &errors), expected)
        << "requeued parts diverged from the direct run";

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    const util::JsonValue *fstats = stats.find("fleet");
    ASSERT_NE(fstats, nullptr);
    // 36 fig3 blocks over 3 shards: some parts landed on the dead
    // worker and had to fail over to its successor.
    EXPECT_GE(fstats->getU64("requeues", 0, &errors), 1u);
    const util::JsonValue *workers = stats.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->items().size(), 3u);
    EXPECT_FALSE(
        workers->items()[1].getBool("alive", true, &errors));
    EXPECT_TRUE(workers->items()[1].find("statsz")->isNull());
}

TEST(FleetCore, CoalescesConcurrentDuplicateSubmits)
{
    // Two executors, pinned by two sleepers: with the worker's pool
    // saturated the leader's forward stays in flight long enough for
    // the duplicate submit below to overlap deterministically. (One
    // executor would not do — ExperimentRunner runs a 1-job pool
    // inline on the submitting thread, so nothing queues.)
    service::ServiceConfig wcfg = workerConfig();
    wcfg.workers = 2;
    Fleet fleet(1, FleetConfig{}, wcfg);

    std::vector<std::thread> sleepers;
    for (int i = 0; i < 2; ++i) {
        sleepers.emplace_back([&fleet, i]() {
            std::vector<std::string> errors;
            util::JsonValue r = fleet.request(submitLine(
                "{\"type\":\"sleep\",\"ms\":" +
                std::to_string(600 + i) + "}"));
            EXPECT_TRUE(r.getBool("ok", false, &errors));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    std::string first_line, second_line;
    std::thread leader([&fleet, &first_line]() {
        first_line =
            fleet.core().handleLine("a", submitLine(kModelJob));
    });
    // The leader is blocked on the worker (queued behind the
    // sleeper) for ~400 ms; joining within that window coalesces.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread waiter([&fleet, &second_line]() {
        second_line =
            fleet.core().handleLine("b", submitLine(kModelJob));
    });
    leader.join();
    waiter.join();
    for (std::thread &t : sleepers)
        t.join();

    std::vector<std::string> errors;
    util::JsonValue first = parse(first_line);
    util::JsonValue second = parse(second_line);
    ASSERT_TRUE(first.getBool("ok", false, &errors));
    ASSERT_TRUE(second.getBool("ok", false, &errors));
    EXPECT_FALSE(first.getBool("coalesced", false, &errors));
    EXPECT_TRUE(second.getBool("coalesced", false, &errors));
    EXPECT_NE(first.getU64("id", 0, &errors),
              second.getU64("id", 0, &errors));
    ASSERT_NE(first.find("result"), nullptr);
    ASSERT_NE(second.find("result"), nullptr);
    EXPECT_EQ(first.find("result")->dump(),
              second.find("result")->dump());

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    const util::JsonValue *fstats = stats.find("fleet");
    ASSERT_NE(fstats, nullptr);
    EXPECT_EQ(fstats->getU64("coalesced", 0, &errors), 1u);
    const util::JsonValue *totals = stats.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->getU64("coalesced", 0, &errors), 1u);
}

TEST(FleetCore, PollReplaysTheRetainedAnswer)
{
    Fleet fleet(1);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(kModelJob));
    ASSERT_TRUE(r.getBool("ok", false, &errors));
    std::uint64_t id = r.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);

    util::JsonValue p = fleet.request(
        "{\"op\":\"poll\",\"id\":" + std::to_string(id) + "}");
    ASSERT_TRUE(p.getBool("ok", false, &errors));
    EXPECT_EQ(p.getString("op", "", &errors), "poll");
    ASSERT_NE(p.find("result"), nullptr);
    EXPECT_EQ(p.find("result")->dump(), r.find("result")->dump());

    util::JsonValue unknown =
        fleet.request("{\"op\":\"poll\",\"id\":9999}");
    EXPECT_FALSE(unknown.getBool("ok", true, &errors));
}

TEST(FleetCore, DegradesToTheModelTierWhenNoWorkerAnswers)
{
    // A fleet whose one worker endpoint was never bound: every
    // forward is a transport failure.
    FleetConfig cfg;
    cfg.workers = {uniqueEndpoint()};
    cfg.degradeToModel = true;
    cfg.enableTestJobs = true;
    FleetCore degrading(cfg);

    std::vector<std::string> errors;
    util::JsonValue r = parse(
        degrading.handleLine("c", submitLine(kModelJob)));
    ASSERT_TRUE(r.getBool("ok", false, &errors))
        << r.getString("error", "", &errors);
    EXPECT_TRUE(r.getBool("degraded", false, &errors));
    ASSERT_NE(r.find("result"), nullptr);

    // Without the degrade escape hatch the same submit is a
    // structured failure with a retry hint, not a hang.
    cfg.degradeToModel = false;
    cfg.retryAfterMs = 125;
    FleetCore failing(cfg);
    util::JsonValue f =
        parse(failing.handleLine("c", submitLine(kModelJob)));
    EXPECT_FALSE(f.getBool("ok", true, &errors));
    EXPECT_NE(f.getString("error", "", &errors)
                  .find("fleet unavailable"),
              std::string::npos);
    EXPECT_EQ(f.getU64("retry_after_ms", 0, &errors), 125u);
}

TEST(FleetCore, StatszAggregatesWorkerSections)
{
    Fleet fleet(2);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(kModelJob));
    ASSERT_TRUE(r.getBool("ok", false, &errors));

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    ASSERT_TRUE(stats.getBool("ok", false, &errors));
    EXPECT_EQ(stats.getString("role", "", &errors), "fleet");

    const util::JsonValue *fstats = stats.find("fleet");
    ASSERT_NE(fstats, nullptr);
    EXPECT_EQ(fstats->getU64("workers", 0, &errors), 2u);
    EXPECT_EQ(fstats->getU64("submitted", 0, &errors), 1u);
    EXPECT_EQ(fstats->getU64("forwarded", 0, &errors), 1u);
    EXPECT_EQ(fstats->getU64("retained", 0, &errors), 1u);

    const util::JsonValue *workers = stats.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->items().size(), 2u);
    for (const util::JsonValue &w : workers->items()) {
        EXPECT_FALSE(w.getString("endpoint", "", &errors).empty());
        EXPECT_TRUE(w.getBool("alive", false, &errors));
        const util::JsonValue *wstats = w.find("statsz");
        ASSERT_NE(wstats, nullptr);
        EXPECT_TRUE(wstats->isObject());
    }

    // The one model job completed on exactly one of the workers.
    const util::JsonValue *totals = stats.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->getU64("submitted", 0, &errors), 1u);
    EXPECT_EQ(totals->getU64("completed", 0, &errors), 1u);
}

} // namespace
} // namespace ringsim::fleet
