#include "config.hpp"

#include "runner/experiment_runner.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace ringsim::service {

ServiceConfig
ServiceConfig::withEnvDefaults()
{
    ServiceConfig cfg;
    cfg.watchdog =
        runner::watchdogBudget(std::chrono::milliseconds(600'000));
    if (auto salt = util::envString("RINGSIM_CACHE_SALT"))
        cfg.salt = *salt;
    return cfg;
}

std::vector<std::string>
ServiceConfig::check() const
{
    std::vector<std::string> errors;
    if (workers == 0)
        errors.push_back(
            "workers = 0: the service needs at least one executor");
    if (workers > 256)
        errors.push_back(strprintf(
            "workers = %u: more than 256 executors is almost "
            "certainly a misconfiguration",
            workers));
    if (queueDepth == 0)
        errors.push_back(
            "queueDepth = 0: every request would be shed");
    if (watchdog.count() < 0)
        errors.push_back(strprintf(
            "watchdog = %lld ms: watchdog budget cannot be negative",
            static_cast<long long>(watchdog.count())));
    if (retainDone == 0)
        errors.push_back(
            "retainDone = 0: async submissions could never be polled");
    for (std::string &e : chaos.check())
        errors.push_back("chaos: " + std::move(e));
    return errors;
}

void
ServiceConfig::validate() const
{
    std::vector<std::string> errors = check();
    if (!errors.empty())
        fatal("service config: %s", errors.front().c_str());
}

} // namespace ringsim::service
