#include "fleet_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "harness.hpp"
#include "service/client.hpp"

namespace perfbench {

using ringsim::service::ServiceClient;

namespace {

/** Wait until @p endpoint answers ping, for at most @p budget_s. */
bool
waitForPing(const std::string &endpoint, double budget_s,
            std::string *error)
{
    const double deadline = nowS() + budget_s;
    JsonValue ping = JsonValue::object();
    ping.set("op", JsonValue::string("ping"));
    while (nowS() < deadline) {
        ServiceClient client;
        std::string err;
        JsonValue reply;
        if (client.tryConnect(endpoint, &err) &&
            client.tryCall(ping, &reply, &err) &&
            reply.getBool("ok", false, nullptr))
            return true;
        *error = endpoint + ": " + err;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return false;
}

} // namespace

Fleet::Fleet(std::string bin_dir, std::string tag)
    : binDir_(std::move(bin_dir)), tag_(std::move(tag))
{
    for (unsigned i = 0; i < kWorkers; ++i)
        workers_.push_back("unix:" + tag_ + "w" + std::to_string(i) +
                           ".sock");
    coordinator_ = "unix:" + tag_ + "fleet.sock";
}

Fleet::~Fleet() { stop(); }

pid_t
Fleet::spawn(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        // Daemon logs would interleave with the harness's output.
        // Only async-signal-safe calls between fork and exec.
        int devnull = open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            dup2(devnull, STDOUT_FILENO);
            dup2(devnull, STDERR_FILENO);
        }
        execv(args[0], args.data());
        _exit(127);
    }
    return pid;
}

double
Fleet::start(std::string *error)
{
    const double t0 = nowS();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        pid_t pid = spawn(
            {binDir_ + "/ringsim_serve", "--endpoint", workers_[i],
             "--workers", "1", "--mem-cache", "8", "--cache-dir",
             tag_ + "cache" + std::to_string(i), "--watchdog-ms",
             "120000"});
        if (pid < 0) {
            *error = "fork failed";
            return -1;
        }
        pids_.push_back(pid);
    }
    std::string worker_list;
    for (const std::string &w : workers_)
        worker_list += (worker_list.empty() ? "" : ",") + w;
    pid_t pid = spawn({binDir_ + "/ringsim_fleetd", "--endpoint",
                       coordinator_, "--workers", worker_list});
    if (pid < 0) {
        *error = "fork failed";
        return -1;
    }
    pids_.push_back(pid);
    for (const std::string &w : workers_)
        if (!waitForPing(w, 10, error))
            return -1;
    if (!waitForPing(coordinator_, 10, error))
        return -1;
    return nowS() - t0;
}

void
Fleet::stop()
{
    if (pids_.empty())
        return;
    JsonValue shutdown = JsonValue::object();
    shutdown.set("op", JsonValue::string("shutdown"));
    std::vector<std::string> endpoints = workers_;
    endpoints.push_back(coordinator_);
    for (const std::string &ep : endpoints) {
        ServiceClient client;
        std::string err;
        JsonValue reply;
        if (client.tryConnect(ep, &err))
            (void)client.tryCall(shutdown, &reply, &err);
    }
    const double deadline = nowS() + 5;
    for (pid_t pid : pids_) {
        while (waitpid(pid, nullptr, WNOHANG) == 0) {
            if (nowS() > deadline) {
                ::kill(pid, SIGKILL);
                waitpid(pid, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    pids_.clear();
}

JsonValue
Fleet::statsz(const std::string &endpoint)
{
    ServiceClient client;
    std::string err;
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("statsz"));
    JsonValue reply;
    if (!client.tryConnect(endpoint, &err) ||
        !client.tryCall(req, &reply, &err))
        return JsonValue::null();
    return reply;
}

JsonValue
serviceCounters(const std::vector<JsonValue> &statsz)
{
    static const char *const kCache[] = {"mem_hits", "disk_hits",
                                         "misses", "stores", "evictions"};
    static const char *const kTop[] = {"coalesced", "admitted", "shed",
                                       "completed", "failed",
                                       "timed_out"};
    JsonValue o = JsonValue::object();
    for (const char *key : kCache) {
        std::uint64_t sum = 0;
        for (const JsonValue &s : statsz)
            if (const JsonValue *cache = s.find("cache"))
                sum += cache->getU64(key, 0, nullptr);
        o.set(key, JsonValue::integer(sum));
    }
    for (const char *key : kTop) {
        std::uint64_t sum = 0;
        for (const JsonValue &s : statsz)
            sum += s.getU64(key, 0, nullptr);
        o.set(key, JsonValue::integer(sum));
    }
    // Executed-job latency as a count and a total, so a window's mean
    // is a difference of two snapshots (the statsz quantiles are
    // histogram buckets).
    std::uint64_t count = 0;
    double total_ms = 0;
    for (const JsonValue &s : statsz) {
        if (const JsonValue *lat = s.find("latency")) {
            std::uint64_t n = lat->getU64("count", 0, nullptr);
            count += n;
            total_ms += static_cast<double>(n) *
                        lat->getNumber("mean_ms", 0, nullptr);
        }
    }
    o.set("exec_count", JsonValue::integer(count));
    o.set("exec_total_ms", JsonValue::number(total_ms));
    return o;
}

bool
measureHop(const std::string &coordinator,
           const std::vector<std::string> &workers, const JsonValue &job,
           double *hop_ms, std::string *error)
{
    const std::string line = submitLine(job);
    ServiceClient via;
    if (!via.tryConnect(coordinator, error))
        return false;
    std::string reply_line;
    JsonValue reply;
    // The first answer computes (or finds) the result and names the
    // worker that owns the spec's shard.
    if (!via.tryRequest(line, &reply_line, error) ||
        !parseReply(reply_line, &reply) ||
        !reply.getBool("ok", false, nullptr)) {
        *error = "hop warm-up failed: " + reply_line.substr(0, 200);
        return false;
    }
    std::string owner = reply.getString("worker", "", nullptr);
    bool known = false;
    for (const std::string &w : workers)
        known = known || w == owner;
    if (!known) {
        *error = "hop warm-up named no worker";
        return false;
    }
    ServiceClient direct;
    if (!direct.tryConnect(owner, error))
        return false;
    std::vector<double> through;
    std::vector<double> straight;
    for (unsigned i = 0; i < kHopSamples; ++i) {
        for (ServiceClient *c : {&via, &direct}) {
            const double t0 = nowS();
            if (!c->tryRequest(line, &reply_line, error) ||
                !parseReply(reply_line, &reply) ||
                !reply.getBool("cached", false, nullptr)) {
                *error = "hop sample was not a cache answer";
                return false;
            }
            (c == &via ? through : straight).push_back(nowS() - t0);
        }
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    *hop_ms = (median(through) - median(straight)) * 1e3;
    return true;
}

} // namespace perfbench
