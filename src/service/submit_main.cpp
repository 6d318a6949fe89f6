/**
 * @file
 * ringsim_submit: command-line client for ringsim_serve /
 * ringsim_fleetd.
 *
 *   ringsim_submit --endpoint E ping
 *   ringsim_submit --endpoint E submit [--wait] [--text]
 *                  [--client NAME] [--deadline-ms N] [--no-degrade]
 *                  '<job json>'   ("-" = stdin)
 *   ringsim_submit --endpoint E poll ID
 *   ringsim_submit --endpoint E cancel ID
 *   ringsim_submit --endpoint E stream ID [--interval-ms N]
 *   ringsim_submit --endpoint E statsz
 *   ringsim_submit --endpoint E shutdown
 *
 * E is one daemon: a ringsim_serve worker, or a ringsim_fleetd
 * coordinator when jobs should be sharded across a fleet.
 *
 * Every command prints the server's response line; --text unwraps a
 * sweep result's rendered table instead, so a routed figure run can be
 * diffed byte-for-byte against the bench binary's stdout.
 *
 * Requests ride the resilient client call: a dropped connection, a
 * garbled response or an overload shed is retried transparently, so
 * the CLI keeps working against a daemon running with --chaos.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

using namespace ringsim;

namespace {

void
usage()
{
    std::cout <<
        "usage: ringsim_submit [--endpoint E] COMMAND\n"
        "  ping\n"
        "  submit [--wait] [--text] [--client NAME]\n"
        "         [--deadline-ms N] [--no-degrade] '<job json>'\n"
        "  poll ID\n"
        "  cancel ID\n"
        "  stream ID [--interval-ms N]\n"
        "  statsz\n"
        "  shutdown\n"
        "Job JSON of '-' is read from stdin. Default endpoint: "
        "ringsim.sock\n"
        "Point E at a ringsim_fleetd to shard jobs across a fleet.\n";
}

/** Connect to @p endpoint; fatal() when it does not answer. */
service::ServiceClient
connectOrDie(const std::string &endpoint)
{
    service::ServiceClient client;
    std::string error;
    if (!client.tryConnect(endpoint, &error))
        fatal("%s: %s", endpoint.c_str(), error.c_str());
    return client;
}

util::JsonValue
callOrDie(service::ServiceClient &client,
          const util::JsonValue &request)
{
    util::JsonValue response;
    std::string error;
    if (!client.tryCallResilient(request, &response, &error))
        fatal("%s", error.c_str());
    return response;
}

/** Print a response; with @p text, unwrap result.text when present. */
void
printResponse(const util::JsonValue &response, bool text)
{
    if (text) {
        if (const util::JsonValue *result = response.find("result")) {
            if (const util::JsonValue *t = result->find("text")) {
                std::cout << t->asString();
                return;
            }
        }
    }
    std::cout << response.dump() << "\n";
}

int
cmdSubmit(const std::string &endpoint, int argc, char **argv, int i)
{
    bool wait = false, text = false, no_degrade = false;
    std::uint64_t deadline_ms = 0;
    std::string who, job_text;
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--wait") {
            wait = true;
        } else if (arg == "--text") {
            text = true;
        } else if (arg == "--no-degrade") {
            no_degrade = true;
        } else if (arg == "--deadline-ms") {
            if (i + 1 >= argc)
                fatal("--deadline-ms needs a value");
            deadline_ms = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--client") {
            if (i + 1 >= argc)
                fatal("--client needs a value");
            who = argv[++i];
        } else if (job_text.empty()) {
            job_text = arg;
        } else {
            fatal("unexpected argument '%s'", arg.c_str());
        }
    }
    if (job_text.empty())
        fatal("submit needs a job JSON argument ('-' = stdin)");
    if (job_text == "-") {
        std::string line;
        job_text.clear();
        while (std::getline(std::cin, line))
            job_text += line;
    }
    util::JsonValue job;
    std::string error;
    if (!util::tryParseJson(job_text, &job, &error))
        fatal("bad job json: %s", error.c_str());
    if (deadline_ms > 0)
        job.set("deadline_ms", util::JsonValue::integer(deadline_ms));
    if (no_degrade)
        job.set("degrade", util::JsonValue::boolean(false));

    service::ServiceClient client = connectOrDie(endpoint);

    util::JsonValue req = util::JsonValue::object();
    req.set("op", util::JsonValue::string("submit"));
    if (!who.empty())
        req.set("client", util::JsonValue::string(who));
    req.set("wait", util::JsonValue::boolean(wait));
    req.set("job", std::move(job));
    printResponse(callOrDie(client, req), text);
    return 0;
}

/** Poll until the job leaves the pool, reporting state changes. */
int
cmdStream(service::ServiceClient &client, std::uint64_t id,
          std::uint64_t interval_ms)
{
    std::string last_state;
    for (;;) {
        util::JsonValue req = util::JsonValue::object();
        req.set("op", util::JsonValue::string("poll"));
        req.set("id", util::JsonValue::integer(id));
        util::JsonValue response = callOrDie(client, req);
        std::vector<std::string> errors;
        std::string state = response.getString("state", "?", &errors);
        if (state != last_state) {
            std::cerr << "job " << id << ": " << state << "\n";
            last_state = state;
        }
        if (state != "queued" && state != "running") {
            printResponse(response, false);
            return state == "done" ? 0 : 1;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string endpoint = "ringsim.sock";
    int i = 1;
    while (i < argc && std::string(argv[i]) == "--endpoint") {
        if (i + 1 >= argc)
            fatal("--endpoint needs a value");
        endpoint = argv[i + 1];
        i += 2;
    }
    if (i >= argc) {
        usage();
        return 2;
    }
    std::string cmd = argv[i++];
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }

    if (cmd == "submit")
        return cmdSubmit(endpoint, argc, argv, i);

    service::ServiceClient client = connectOrDie(endpoint);
    if (cmd == "ping" || cmd == "statsz" || cmd == "shutdown") {
        util::JsonValue req = util::JsonValue::object();
        req.set("op", util::JsonValue::string(cmd));
        printResponse(callOrDie(client, req), false);
        return 0;
    }
    if (cmd == "poll" || cmd == "cancel" || cmd == "stream") {
        if (i >= argc)
            fatal("%s needs a job id", cmd.c_str());
        std::uint64_t id =
            std::strtoull(argv[i++], nullptr, 10);
        if (cmd == "poll" || cmd == "cancel") {
            util::JsonValue req = util::JsonValue::object();
            req.set("op", util::JsonValue::string(cmd));
            req.set("id", util::JsonValue::integer(id));
            printResponse(callOrDie(client, req), false);
            return 0;
        }
        std::uint64_t interval_ms = 200;
        if (i < argc && std::string(argv[i]) == "--interval-ms") {
            if (i + 1 >= argc)
                fatal("--interval-ms needs a value");
            interval_ms = std::strtoull(argv[i + 1], nullptr, 10);
        }
        return cmdStream(client, id, interval_ms);
    }
    fatal("unknown command '%s' (try --help)", cmd.c_str());
}
