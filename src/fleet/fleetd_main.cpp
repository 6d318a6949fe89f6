/**
 * @file
 * ringsim_fleetd: the fleet coordinator daemon.
 *
 * Listens on the same NDJSON protocol as ringsim_serve and routes
 * every job to a fleet of worker daemons: sharded by canonical-spec
 * cache key (so duplicate in-flight specs meet on one worker, which
 * runs them once), sweep jobs split across workers and reassembled
 * byte-identically, dead workers failed over deterministically. See
 * src/fleet/coordinator.hpp for the full contract.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>

#include "fleet/coordinator.hpp"
#include "fleet/fleet_config.hpp"
#include "service/socket_server.hpp"
#include "util/logging.hpp"

using namespace ringsim;

namespace {

void
usage()
{
    std::cout <<
        "usage: ringsim_fleetd --workers E1,E2,... [flags]\n"
        "  --endpoint E        listen endpoint: tcp:PORT | unix:PATH "
        "| PATH\n"
        "                      (default ringsim-fleet.sock)\n"
        "  --workers E1,E2,... worker daemon endpoints, in shard "
        "order\n"
        "  --fanout N          concurrent subjob forwards per split "
        "sweep\n"
        "                      (default 2 x workers)\n"
        "  --probe-ms N        dead-worker re-probe interval "
        "(default 500)\n"
        "  --attempts N        transport attempts per worker before\n"
        "                      failing over (default 2)\n"
        "  --retry-after-ms N  backoff hint when no worker can "
        "answer\n"
        "                      (default 250)\n"
        "  --retain N          finished records kept for polling "
        "(default 1024)\n"
        "  --salt S            fleet identity salt (sharding)\n"
        "  --degrade           when no worker can answer, serve "
        "degradable\n"
        "                      jobs from the local analytic-model "
        "tier\n"
        "  --jobs-per-sweep N  fan-out of local degraded sweep "
        "solves\n"
        "  --test-jobs         accept the test-only sleep job kind\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Same rationale as ringsim_serve: a client gone mid-response
    // must not kill the coordinator (worker sockets add more fds
    // that can break at any moment).
    std::signal(SIGPIPE, SIG_IGN);

    std::string endpoint = "ringsim-fleet.sock";
    fleet::FleetConfig cfg;

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
            for (std::string &worker : service::splitEndpointList(
                     need_value("--workers")))
                cfg.workers.push_back(std::move(worker));
        } else if (arg == "--fanout") {
            cfg.fanout = static_cast<unsigned>(std::strtoul(
                need_value("--fanout").c_str(), nullptr, 10));
        } else if (arg == "--probe-ms") {
            cfg.probeMs = std::strtoull(
                need_value("--probe-ms").c_str(), nullptr, 10);
        } else if (arg == "--attempts") {
            cfg.attemptsPerWorker = static_cast<unsigned>(std::strtoul(
                need_value("--attempts").c_str(), nullptr, 10));
        } else if (arg == "--retry-after-ms") {
            cfg.retryAfterMs = std::strtoull(
                need_value("--retry-after-ms").c_str(), nullptr, 10);
        } else if (arg == "--retain") {
            cfg.retainDone = std::strtoull(
                need_value("--retain").c_str(), nullptr, 10);
        } else if (arg == "--salt") {
            cfg.salt = need_value("--salt");
        } else if (arg == "--degrade") {
            cfg.degradeToModel = true;
        } else if (arg == "--jobs-per-sweep") {
            cfg.jobsPerSweep = static_cast<unsigned>(std::strtoul(
                need_value("--jobs-per-sweep").c_str(), nullptr, 10));
        } else if (arg == "--test-jobs") {
            cfg.enableTestJobs = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown flag '%s' (try --help)", arg.c_str());
        }
    }
    cfg.validate();

    fleet::FleetCore core(cfg);
    service::SocketServer server(core, endpoint);
    std::string error;
    if (!server.tryStart(&error))
        fatal("cannot serve: %s", error.c_str());
    inform("fleet: listening on %s (%zu workers)", endpoint.c_str(),
           cfg.workers.size());
    server.serve();
    inform("fleet: shutdown complete");
    return 0;
}
