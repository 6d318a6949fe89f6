/**
 * @file
 * Unit tests for job parsing, canonicalization and validation.
 */

#include <gtest/gtest.h>

#include "src/service/job.hpp"

namespace ringsim::service {
namespace {

util::JsonValue
parseJson(const std::string &text)
{
    util::JsonValue v;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(text, &v, &error)) << error;
    return v;
}

bool
tryParseJob(const std::string &text, JobSpec *out, std::string *error,
            bool allow_test_jobs = false)
{
    return JobSpec::tryParse(parseJson(text), allow_test_jobs, out,
                            error);
}

TEST(JobParse, RunDefaults)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &spec, &error))
        << error;
    EXPECT_EQ(spec.kind, JobKind::Run);
    EXPECT_EQ(spec.benchmark, trace::Benchmark::MP3D);
    EXPECT_EQ(spec.procs, 16u);
    EXPECT_EQ(spec.protocol, "snoop");
    EXPECT_EQ(spec.refs, 120'000u);
    EXPECT_TRUE(spec.cacheable());
}

TEST(JobParse, UnknownTypeRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob("{\"type\":\"dance\"}", &spec, &error));
    EXPECT_NE(error.find("type = 'dance'"), std::string::npos)
        << error;
}

TEST(JobParse, UnknownBenchmarkRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"doom\"}", &spec, &error));
    EXPECT_NE(error.find("benchmark = 'doom'"), std::string::npos)
        << error;
}

TEST(JobParse, InvalidPresetComboRejected)
{
    JobSpec spec;
    std::string error;
    // MP3D is an 8/16/32 workload; 64 is FFT/WEATHER/SIMPLE-only.
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"mp3d\",\"procs\":64}",
        &spec, &error));
    EXPECT_NE(error.find("procs = 64"), std::string::npos) << error;
}

TEST(JobParse, BusWithFaultsRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"protocol\":\"bus\",\"procs\":8,"
        "\"benchmark\":\"mp3d\","
        "\"faults\":{\"corrupt_rate\":0.001}}",
        &spec, &error));
    EXPECT_NE(error.find("fault"), std::string::npos) << error;
}

TEST(JobParse, FaultRatesValidated)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"faults\":{\"corrupt_rate\":1.5}}",
        &spec, &error));
    EXPECT_NE(error.find("faults"), std::string::npos) << error;
}

TEST(JobParse, SweepNamesFigure)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig6\",\"cholesky\":true}",
        &spec, &error))
        << error;
    EXPECT_EQ(spec.figure, figures::FigureId::Fig6);
    EXPECT_TRUE(spec.fig6Cholesky);

    // Every registered artifact is a sweep the service accepts.
    for (figures::FigureId id : figures::allFigures()) {
        std::string name = figures::figureName(id);
        ASSERT_TRUE(tryParseJob("{\"type\":\"sweep\",\"figure\":\"" +
                                    name + "\"}",
                                &spec, &error))
            << name << ": " << error;
        EXPECT_EQ(spec.figure, id) << name;
    }
}

TEST(JobParse, SweepDegradesOnlyWithModelTier)
{
    // Figures 3, 4 and 6 have model series and sim points, so the
    // model tier stands in for them; the tables and ablations have no
    // cheaper answer.
    JobSpec spec;
    std::string error;
    for (figures::FigureId id : figures::allFigures()) {
        std::string name = figures::figureName(id);
        ASSERT_TRUE(tryParseJob("{\"type\":\"sweep\",\"figure\":\"" +
                                    name + "\"}",
                                &spec, &error))
            << error;
        bool expected = name == "fig3" || name == "fig4" || name == "fig6";
        EXPECT_EQ(spec.degradable(), expected) << name;
    }
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig4\",\"part\":1}", &spec,
        &error))
        << error;
    EXPECT_FALSE(spec.degradable());
}

TEST(JobParse, SweepUnknownFigureRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig9\"}", &spec, &error));
    EXPECT_NE(error.find("figure = 'fig9'"), std::string::npos)
        << error;
    // The diagnostic lists the registry's names.
    EXPECT_NE(error.find("table1"), std::string::npos) << error;
    EXPECT_NE(error.find("ablation_insertion_ring"), std::string::npos)
        << error;
}

TEST(JobParse, VerifyBoundsChecked)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"verify\",\"nodes\":99}", &spec, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JobParse, SleepGatedByTestJobs)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob("{\"type\":\"sleep\",\"ms\":5}", &spec,
                             &error, /*allow_test_jobs=*/false));
    EXPECT_NE(error.find("test jobs"), std::string::npos) << error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"sleep\",\"ms\":5}", &spec,
                            &error, /*allow_test_jobs=*/true))
        << error;
    EXPECT_EQ(spec.kind, JobKind::Sleep);
    EXPECT_FALSE(spec.cacheable());
}

TEST(JobParse, ZeroRefsRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(
        tryParseJob("{\"type\":\"run\",\"refs\":0}", &spec, &error));
    EXPECT_NE(error.find("refs = 0"), std::string::npos) << error;
}

TEST(JobCanonical, OmittedAndExplicitDefaultsCollide)
{
    // The memoization contract: spelling a default out must hit the
    // same cache entry as omitting it.
    JobSpec a, b;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &a, &error));
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"mp3d\",\"procs\":16,"
        "\"protocol\":\"snoop\",\"refs\":120000,\"seed\":12345,"
        "\"fast\":false}",
        &b, &error));
    EXPECT_EQ(a.canonical().dump(), b.canonical().dump());
}

TEST(JobCanonical, ResultAffectingFieldsChangeTheSpec)
{
    JobSpec a, b, c;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &a, &error));
    ASSERT_TRUE(
        tryParseJob("{\"type\":\"run\",\"seed\":999}", &b, &error));
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"run\",\"faults\":{\"corrupt_rate\":0.001}}", &c,
        &error));
    EXPECT_NE(a.canonical().dump(), b.canonical().dump());
    EXPECT_NE(a.canonical().dump(), c.canonical().dump());
}

TEST(JobCanonical, FigureSweepKeysArePinned)
{
    // The canonical strings of the fig3/fig4/fig6 sweep jobs are cache
    // keys: a byte of drift here invalidates every warm cache.
    const char *const faults_default =
        "\"faults\":{\"corrupt_rate\":0,\"drop_rate\":0,\"stall_rate\":0,"
        "\"stall_cycles\":4,\"seed\":1,\"max_faults\":0,"
        "\"max_retries\":8,\"retry_timeout\":0,\"backoff_base\":0}}";
    const struct
    {
        const char *job;
        std::string canonical;
    } cases[] = {
        {"{\"type\":\"sweep\",\"figure\":\"fig3\"}",
         std::string("{\"type\":\"sweep\",\"figure\":\"fig3\","
                     "\"csv\":false,\"cholesky\":false,\"refs\":120000,"
                     "\"seed\":12345,\"fast\":false,") +
             faults_default},
        {"{\"type\":\"sweep\",\"figure\":\"fig4\",\"fast\":true,"
         "\"refs\":60000}",
         std::string("{\"type\":\"sweep\",\"figure\":\"fig4\","
                     "\"csv\":false,\"cholesky\":false,\"refs\":60000,"
                     "\"seed\":12345,\"fast\":true,") +
             faults_default},
        {"{\"type\":\"sweep\",\"figure\":\"fig6\",\"cholesky\":true,"
         "\"csv\":true}",
         std::string("{\"type\":\"sweep\",\"figure\":\"fig6\","
                     "\"csv\":true,\"cholesky\":true,\"refs\":120000,"
                     "\"seed\":12345,\"fast\":false,") +
             faults_default},
        {"{\"type\":\"sweep\",\"figure\":\"fig6\",\"part\":3}",
         std::string("{\"type\":\"sweep\",\"figure\":\"fig6\","
                     "\"csv\":false,\"cholesky\":false,\"part\":3,"
                     "\"refs\":120000,\"seed\":12345,\"fast\":false,") +
             faults_default},
        {"{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
         "\"fast\":true,\"faults\":{\"corrupt_rate\":0.001,"
         "\"drop_rate\":0.001,\"seed\":7}}",
         "{\"type\":\"sweep\",\"figure\":\"fig3\",\"csv\":false,"
         "\"cholesky\":false,\"refs\":600,\"seed\":12345,\"fast\":true,"
         "\"faults\":{\"corrupt_rate\":0.001,\"drop_rate\":0.001,"
         "\"stall_rate\":0,\"stall_cycles\":4,\"seed\":7,"
         "\"max_faults\":0,\"max_retries\":8,\"retry_timeout\":0,"
         "\"backoff_base\":0}}"},
    };
    for (const auto &c : cases) {
        JobSpec spec;
        std::string error;
        ASSERT_TRUE(tryParseJob(c.job, &spec, &error)) << error;
        EXPECT_EQ(spec.canonical().dump(), c.canonical) << c.job;
    }
}

TEST(JobCanonical, KindsAreDisjoint)
{
    JobSpec run, model;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &run, &error));
    ASSERT_TRUE(tryParseJob("{\"type\":\"model\"}", &model, &error));
    EXPECT_NE(run.canonical().dump(), model.canonical().dump());
}

TEST(JobDescribe, NamesTheWork)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig3\"}", &spec, &error));
    EXPECT_NE(spec.describe().find("fig3"), std::string::npos);
}

TEST(JobExecute, VerifySmallConfigRuns)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"verify\",\"protocol\":\"snoop\",\"nodes\":2,"
        "\"blocks\":1,\"inflight\":2}",
        &spec, &error))
        << error;
    util::JsonValue result = executeJob(spec, 1);
    std::vector<std::string> errors;
    EXPECT_EQ(result.getString("kind", "", &errors), "verify");
    EXPECT_TRUE(result.getBool("clean", false, &errors));
    EXPECT_TRUE(errors.empty());
}

TEST(JobExecute, ModelSolvesQuickly)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"model\",\"benchmark\":\"mp3d\",\"procs\":8,"
        "\"refs\":2000,\"fast\":true,\"cycle_ns\":40}",
        &spec, &error))
        << error;
    util::JsonValue result = executeJob(spec, 1);
    std::vector<std::string> errors;
    EXPECT_EQ(result.getString("kind", "", &errors), "model");
    double util = result.getNumber("proc_util", -1, &errors);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_TRUE(errors.empty());
}

TEST(JobExecute, RunIsDeterministic)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"mp3d\",\"procs\":8,"
        "\"refs\":1500,\"fast\":true}",
        &spec, &error))
        << error;
    // Byte-identical re-execution is what makes memoization legal.
    EXPECT_EQ(executeJob(spec, 1).dump(), executeJob(spec, 1).dump());
}

} // namespace
} // namespace ringsim::service
