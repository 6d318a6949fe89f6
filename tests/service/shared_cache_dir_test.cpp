/**
 * @file
 * Result sharing between daemons: two ServiceCores opened on one
 * cacheDir. Their memory tiers are private, so the second core can
 * answer the first's spec without recomputing only through the
 * shared disk tier, which ResultCache reads at lookup time.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/service/server.hpp"
#include "src/util/json.hpp"

namespace ringsim::service {
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

constexpr const char *kModelSubmit =
    "{\"op\":\"submit\",\"wait\":true,\"job\":{\"type\":\"model\","
    "\"benchmark\":\"mp3d\",\"procs\":8,\"refs\":2000,"
    "\"fast\":true}}";

TEST(SharedCacheDir, WarmDaemonServesAColdDaemon)
{
    std::string tmpl =
        testing::TempDir() + "/ringsim_shared_cache.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queueDepth = 8;
    cfg.memCacheEntries = 16;
    cfg.cacheDir = tmpl;
    // Both daemons are up before either computes anything.
    ServiceCore warm(cfg);
    ServiceCore cold(cfg);
    std::vector<std::string> errors;

    util::JsonValue first = parse(warm.handleLine("w", kModelSubmit));
    ASSERT_TRUE(first.getBool("ok", false, &errors));
    ASSERT_FALSE(first.getBool("cached", true, &errors));

    // Same canonical spec, same empty salt: the same key, found in
    // the shared directory. Same result bytes, no recompute.
    util::JsonValue second = parse(cold.handleLine("c", kModelSubmit));
    ASSERT_TRUE(second.getBool("ok", false, &errors));
    EXPECT_TRUE(second.getBool("cached", false, &errors));
    ASSERT_NE(second.find("result"), nullptr);
    EXPECT_EQ(second.find("result")->dump(),
              first.find("result")->dump());

    util::JsonValue stats =
        parse(cold.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(stats.getU64("cache_answers", 0, &errors), 1u);
    EXPECT_EQ(stats.getU64("admitted", 1, &errors), 0u);
    const util::JsonValue *cache = stats.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->getU64("disk_hits", 0, &errors), 1u);
}

} // namespace
} // namespace ringsim::service
