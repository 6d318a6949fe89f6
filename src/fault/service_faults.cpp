#include "service_faults.hpp"

#include "util/logging.hpp"

namespace ringsim::fault {

namespace {

/** splitmix64 finalizer; bit-stable on every platform. */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

ServiceFaultConfig
ServiceFaultConfig::chaosPreset(std::uint64_t seed)
{
    // Rates high enough that a four-client smoke run trips every
    // class several times, low enough that bounded client retries
    // (ServiceClient::tryCallResilient) always converge.
    ServiceFaultConfig cfg;
    cfg.seed = seed;
    cfg.slowWriteRate = 0.10;
    cfg.disconnectRate = 0.05;
    cfg.garbleRate = 0.05;
    cfg.tornWriteRate = 0.15;
    cfg.bitFlipRate = 0.15;
    return cfg;
}

std::vector<std::string>
ServiceFaultConfig::check() const
{
    std::vector<std::string> errors;
    auto rate_ok = [&](double rate, const char *name) {
        if (rate < 0.0 || rate > 1.0 || rate != rate) {
            errors.push_back(strprintf(
                "%sRate = %g: fault rate is not a probability in "
                "[0, 1]",
                name, rate));
        }
    };
    rate_ok(slowWriteRate, "slowWrite");
    rate_ok(disconnectRate, "disconnect");
    rate_ok(garbleRate, "garble");
    rate_ok(tornWriteRate, "tornWrite");
    rate_ok(bitFlipRate, "bitFlip");
    if (slowWriteRate > 0.0 && slowChunkBytes == 0)
        errors.push_back(strprintf(
            "slowChunkBytes = 0: slow writes (slowWriteRate = %g) "
            "need a nonzero chunk",
            slowWriteRate));
    return errors;
}

void
ServiceFaultConfig::validate() const
{
    std::vector<std::string> errors = check();
    if (!errors.empty())
        fatal("%s", errors.front().c_str());
}

ServiceFaultInjector::ServiceFaultInjector(
    const ServiceFaultConfig &config)
    : config_(config)
{
    config_.validate();
}

bool
ServiceFaultInjector::decide(std::uint64_t seed,
                             ServiceFaultKind kind, std::uint64_t seq,
                             double rate)
{
    if (rate <= 0.0)
        return false;
    std::uint64_t h = mix(seed ^
                          (static_cast<std::uint64_t>(kind) + 1) *
                              0xd6e8feb86659fd93ULL);
    h = mix(h ^ seq);
    // Top 53 bits -> uniform double in [0, 1).
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < rate;
}

bool
ServiceFaultInjector::fire(ServiceFaultKind kind,
                           std::atomic<std::uint64_t> &seq,
                           double rate,
                           std::atomic<std::uint64_t> &counter)
{
    std::uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
    if (!decide(config_.seed, kind, n, rate))
        return false;
    counter.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ServiceFaultInjector::slowWrite()
{
    return fire(ServiceFaultKind::SlowWrite, slow_seq_,
                config_.slowWriteRate, slow_fired_);
}

bool
ServiceFaultInjector::disconnect()
{
    return fire(ServiceFaultKind::Disconnect, disconnect_seq_,
                config_.disconnectRate, disconnect_fired_);
}

bool
ServiceFaultInjector::garble()
{
    return fire(ServiceFaultKind::Garble, garble_seq_,
                config_.garbleRate, garble_fired_);
}

bool
ServiceFaultInjector::tornWrite()
{
    return fire(ServiceFaultKind::TornWrite, torn_seq_,
                config_.tornWriteRate, torn_fired_);
}

bool
ServiceFaultInjector::bitFlip()
{
    return fire(ServiceFaultKind::BitFlip, flip_seq_,
                config_.bitFlipRate, flip_fired_);
}

ServiceFaultCounters
ServiceFaultInjector::counters() const
{
    ServiceFaultCounters c;
    c.slowWrites = slow_fired_.load(std::memory_order_relaxed);
    c.disconnects = disconnect_fired_.load(std::memory_order_relaxed);
    c.garbles = garble_fired_.load(std::memory_order_relaxed);
    c.tornWrites = torn_fired_.load(std::memory_order_relaxed);
    c.bitFlips = flip_fired_.load(std::memory_order_relaxed);
    return c;
}

} // namespace ringsim::fault
