/**
 * @file
 * Tests for the ExperimentRunner thread pool: deterministic result
 * ordering regardless of worker count, the serial inline path, the
 * seed-derivation helper, and error propagation.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/driver.hpp"
#include "model/ring_model.hpp"
#include "runner/experiment_runner.hpp"
#include "trace/workload.hpp"

namespace ringsim::runner {
namespace {

TEST(JobSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(jobSeed(42, 0), jobSeed(42, 0));
    EXPECT_EQ(jobSeed(42, 7), jobSeed(42, 7));

    std::set<std::uint64_t> seeds;
    for (std::uint64_t key = 0; key < 64; ++key)
        seeds.insert(jobSeed(42, key));
    EXPECT_EQ(seeds.size(), 64u) << "per-job seeds must not collide";

    EXPECT_NE(jobSeed(1, 0), jobSeed(2, 0))
        << "different master seeds must derive different job seeds";
}

TEST(ResolveJobs, ExplicitValueWins)
{
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ResolveJobs, ZeroFallsBackToDefault)
{
    EXPECT_EQ(resolveJobs(0), defaultJobs());
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ResolveJobs, HonorsEnvironment)
{
    ::setenv("RINGSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("RINGSIM_JOBS", "notanumber", 1);
    unsigned fallback = defaultJobs(); // warns, ignores the value
    EXPECT_GE(fallback, 1u);
    ::unsetenv("RINGSIM_JOBS");
}

TEST(ExperimentRunner, ZeroJobsCompletesImmediately)
{
    ExperimentRunner pool(4);
    pool.wait(); // nothing submitted
    std::vector<std::function<int()>> empty;
    EXPECT_TRUE(runAll(std::move(empty), 4).empty());
}

TEST(ExperimentRunner, SerialModeRunsInline)
{
    ExperimentRunner pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::thread::id main_id = std::this_thread::get_id();
    std::thread::id job_id;
    pool.submit([&]() { job_id = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(job_id, main_id);
}

TEST(ExperimentRunner, MoreThreadsThanJobs)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.push_back([i]() { return i * 10; });
    std::vector<int> out = runAll(std::move(tasks), 16);
    EXPECT_EQ(out, (std::vector<int>{0, 10, 20}));
}

TEST(ExperimentRunner, ResultsIndexedBySubmissionOrder)
{
    // 64 jobs with deliberately uneven run times: results must still
    // land in submission slots, not completion order.
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back([i]() {
            if (i % 7 == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            return i;
        });
    }
    std::vector<int> out = runAll(std::move(tasks), 8);
    ASSERT_EQ(out.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ExperimentRunner, AllJobsRunExactlyOnce)
{
    std::atomic<int> ran{0};
    ExperimentRunner pool(4);
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran]() { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ExperimentRunner, PropagatesEarliestException)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() { return 1; });
    tasks.push_back([]() -> int {
        throw std::runtime_error("job two failed");
    });
    tasks.push_back([]() -> int {
        throw std::runtime_error("job three failed");
    });
    try {
        runAll(std::move(tasks), 4);
        FAIL() << "expected the job exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job two failed")
            << "earliest-submitted failure wins";
    }
}

TEST(ExperimentRunner, ExceptionInSerialMode)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() -> int {
        throw std::runtime_error("serial failure");
    });
    EXPECT_THROW(runAll(std::move(tasks), 1), std::runtime_error);
}

TEST(HardenedRunner, StatusNamesArePrintable)
{
    EXPECT_STREQ(jobStatusName(JobReport::Status::Ok), "ok");
    EXPECT_STREQ(jobStatusName(JobReport::Status::Failed), "failed");
    EXPECT_STREQ(jobStatusName(JobReport::Status::TimedOut),
                 "timed_out");
}

TEST(HardenedRunner, WatchdogTimesOutHungJobInIsolation)
{
    RunPolicy policy;
    policy.jobTimeout = std::chrono::milliseconds(200);
    // The hung job spins on a shared flag so the abandoned (detached)
    // thread can be released once the assertions are done.
    auto release = std::make_shared<std::atomic<bool>>(false);
    std::atomic<int> finished{0};

    ExperimentRunner pool(2, policy);
    pool.submit([release]() {
        while (!release->load())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    for (int i = 0; i < 4; ++i)
        pool.submit([&finished]() { finished.fetch_add(1); });
    pool.waitAll();
    std::vector<JobReport> reports = pool.reports();
    release->store(true);

    ASSERT_EQ(reports.size(), 5u);
    EXPECT_EQ(reports[0].status, JobReport::Status::TimedOut);
    EXPECT_NE(reports[0].error.find("timed out"), std::string::npos)
        << reports[0].error;
    for (std::size_t i = 1; i < reports.size(); ++i)
        EXPECT_EQ(reports[i].status, JobReport::Status::Ok)
            << "job " << i << " must complete despite the hung job";
    EXPECT_EQ(finished.load(), 4);
}

TEST(HardenedRunner, TimedOutJobStillThrowsFromLegacyWait)
{
    RunPolicy policy;
    policy.jobTimeout = std::chrono::milliseconds(100);
    auto release = std::make_shared<std::atomic<bool>>(false);
    ExperimentRunner pool(2, policy);
    pool.submit([release]() {
        while (!release->load())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    release->store(true);
}

TEST(HardenedRunner, SweepRetriesTransientFailure)
{
    auto tries = std::make_shared<std::atomic<int>>(0);
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() { return 7; });
    tasks.push_back([tries]() -> int {
        if (tries->fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return 42;
    });
    RunPolicy policy;
    policy.maxAttempts = 2;
    SweepResult<int> sweep = runSweep(std::move(tasks), 2, policy);
    EXPECT_TRUE(sweep.allOk()) << sweep.failureSummaryJson();
    EXPECT_EQ(sweep.results[0], 7);
    EXPECT_EQ(sweep.results[1], 42);
    EXPECT_EQ(sweep.reports[0].attempts, 1u);
    EXPECT_EQ(sweep.reports[1].attempts, 2u);
}

TEST(HardenedRunner, SweepIsolatesPermanentFailure)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() { return 1; });
    tasks.push_back(
        []() -> int { throw std::runtime_error("doomed point"); });
    tasks.push_back([]() { return 3; });
    SweepResult<int> sweep = runSweep(std::move(tasks), 2);
    EXPECT_FALSE(sweep.allOk());
    EXPECT_EQ(sweep.failures(), 1u);
    EXPECT_EQ(sweep.results[0], 1);
    EXPECT_EQ(sweep.results[2], 3);
    EXPECT_EQ(sweep.reports[1].status, JobReport::Status::Failed);
    EXPECT_NE(sweep.reports[1].error.find("doomed point"),
              std::string::npos);

    std::string json = sweep.failureSummaryJson();
    EXPECT_NE(json.find("\"jobs\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"failed\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"index\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("doomed point"), std::string::npos) << json;
}

TEST(HardenedRunner, SerialSweepRecordsFailuresToo)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back(
        []() -> int { throw std::runtime_error("serial boom"); });
    tasks.push_back([]() { return 5; });
    SweepResult<int> sweep = runSweep(std::move(tasks), 1);
    EXPECT_EQ(sweep.failures(), 1u);
    EXPECT_EQ(sweep.reports[0].status, JobReport::Status::Failed);
    EXPECT_EQ(sweep.results[1], 5);
}

TEST(HardenedRunner, EmptySummaryForCleanSweep)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() { return 9; });
    SweepResult<int> sweep = runSweep(std::move(tasks), 2);
    EXPECT_TRUE(sweep.allOk());
    std::string json = sweep.failureSummaryJson();
    EXPECT_NE(json.find("\"failed\": 0"), std::string::npos) << json;
}

/** Format a model evaluation the way the figure benches do, so the
 *  comparison is sensitive to any cross-thread nondeterminism. */
std::string
sweepRow(const coherence::Census &census, unsigned procs, double mips)
{
    model::RingModelInput in;
    in.census = census;
    in.ring = core::RingSystemConfig::forProcs(procs).ring;
    in.system.procCycle = nsToTicks(1e3 / mips);
    in.protocol = model::RingProtocol::Snoop;
    model::ModelResult r = model::solveRing(in);
    std::ostringstream os;
    os << procs << '/' << mips << ':' << r.procUtilization << ','
       << r.networkUtilization << ',' << r.missLatencyNs;
    return os.str();
}

/** Run a miniature fig3-style sweep (calibrate per workload, then
 *  model rows) at the given worker count and flatten the table. */
std::vector<std::string>
miniSweep(unsigned jobs)
{
    const unsigned procSizes[] = {8, 16};
    std::vector<trace::WorkloadConfig> workloads;
    for (unsigned procs : procSizes) {
        trace::WorkloadConfig wl =
            trace::workloadPreset(trace::Benchmark::MP3D, procs);
        wl.dataRefsPerProc = 400; // keep the test fast
        workloads.push_back(wl);
    }

    std::vector<std::function<coherence::Census()>> calibrations;
    for (const trace::WorkloadConfig &wl : workloads)
        calibrations.push_back(
            [wl]() { return coherence::runFunctional(wl); });
    std::vector<coherence::Census> censuses =
        runAll(std::move(calibrations), jobs);

    std::vector<std::function<std::string()>> rows;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        for (double mips : {100.0, 400.0}) {
            const coherence::Census &census = censuses[i];
            unsigned procs = workloads[i].procs;
            rows.push_back([&census, procs, mips]() {
                return sweepRow(census, procs, mips);
            });
        }
    }
    return runAll(std::move(rows), jobs);
}

TEST(ExperimentRunner, ParallelSweepMatchesSerialByteForByte)
{
    std::vector<std::string> serial = miniSweep(1);
    std::vector<std::string> parallel = miniSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "row " << i;
}

} // namespace
} // namespace ringsim::runner
