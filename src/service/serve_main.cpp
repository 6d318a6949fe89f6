/**
 * @file
 * ringsim_serve: the experiment-service daemon.
 *
 * Accepts NDJSON requests (one per line) on a Unix or loopback TCP
 * socket, schedules jobs onto a bounded worker pool with per-client
 * fairness, and memoizes results in a two-tier content-addressed
 * cache. See src/service/server.hpp for the protocol.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "service/config.hpp"
#include "service/server.hpp"
#include "service/socket_server.hpp"
#include "util/logging.hpp"

using namespace ringsim;

namespace {

void
usage()
{
    std::cout <<
        "usage: ringsim_serve [flags]\n"
        "  --endpoint E       tcp:PORT | unix:PATH | PATH "
        "(default ringsim.sock)\n"
        "  --workers N        concurrent job executors (default 2)\n"
        "  --queue-depth N    admitted-but-unfinished bound "
        "(default 64)\n"
        "  --mem-cache N      in-memory cache entries (default 128)\n"
        "  --cache-dir PATH   on-disk cache directory (default off);\n"
        "                     daemons given the same PATH share\n"
        "                     every cached result\n"
        "  --salt S           extra cache salt (default "
        "$RINGSIM_CACHE_SALT)\n"
        "  --watchdog-ms N    per-job budget (default "
        "$RINGSIM_WATCHDOG_MS, else 600000; 0 disables)\n"
        "  --jobs-per-sweep N workers inside one sweep job "
        "(default auto)\n"
        "  --retry-after-ms N base shed backoff hint (default 250)\n"
        "  --retain N         finished records kept for polling "
        "(default 1024)\n"
        "  --test-jobs        accept the test-only sleep job kind\n"
        "  --degrade          answer shed/abandoned run|sweep|model\n"
        "                     jobs from the analytic-model tier,\n"
        "                     tagged degraded:true (default off)\n"
        "  --chaos SEED       deterministic fault injection: slow,\n"
        "                     garbled and dropped responses, torn and\n"
        "                     bit-flipped disk-cache entries\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // A client that disconnects mid-response must not take the whole
    // daemon (and every other client's in-flight jobs) with it. Socket
    // writes also pass MSG_NOSIGNAL; this covers any other fd.
    std::signal(SIGPIPE, SIG_IGN);

    std::string endpoint = "ringsim.sock";
    service::ServiceConfig cfg =
        service::ServiceConfig::withEnvDefaults();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--endpoint") {
            endpoint = need_value("--endpoint");
        } else if (arg == "--workers") {
            cfg.workers = static_cast<unsigned>(std::strtoul(
                need_value("--workers").c_str(), nullptr, 10));
        } else if (arg == "--queue-depth") {
            cfg.queueDepth = std::strtoull(
                need_value("--queue-depth").c_str(), nullptr, 10);
        } else if (arg == "--mem-cache") {
            cfg.memCacheEntries = std::strtoull(
                need_value("--mem-cache").c_str(), nullptr, 10);
        } else if (arg == "--cache-dir") {
            cfg.cacheDir = need_value("--cache-dir");
        } else if (arg == "--salt") {
            cfg.salt = need_value("--salt");
        } else if (arg == "--watchdog-ms") {
            cfg.watchdog = std::chrono::milliseconds(std::strtoll(
                need_value("--watchdog-ms").c_str(), nullptr, 10));
        } else if (arg == "--jobs-per-sweep") {
            cfg.jobsPerSweep = static_cast<unsigned>(std::strtoul(
                need_value("--jobs-per-sweep").c_str(), nullptr, 10));
        } else if (arg == "--retry-after-ms") {
            cfg.retryAfterMs = std::strtoull(
                need_value("--retry-after-ms").c_str(), nullptr, 10);
        } else if (arg == "--retain") {
            cfg.retainDone = std::strtoull(
                need_value("--retain").c_str(), nullptr, 10);
        } else if (arg == "--test-jobs") {
            cfg.enableTestJobs = true;
        } else if (arg == "--degrade") {
            cfg.degradeToModel = true;
        } else if (arg == "--chaos") {
            cfg.chaos = fault::ServiceFaultConfig::chaosPreset(
                std::strtoull(need_value("--chaos").c_str(), nullptr,
                              10));
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown flag '%s' (try --help)", arg.c_str());
        }
    }
    cfg.validate();

    service::ServiceCore core(cfg);
    service::SocketServer server(core, endpoint);
    std::string error;
    if (!server.tryStart(&error))
        fatal("cannot serve: %s", error.c_str());
    inform("service: listening on %s", endpoint.c_str());
    server.serve();
    inform("service: shutdown complete");
    return 0;
}
