#include "fault.hpp"

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

std::vector<std::string>
FaultConfig::check() const
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
    rate_ok(corruptRate, "corrupt");
    rate_ok(dropRate, "drop");
    rate_ok(stallRate, "stall");
    if (stallRate > 0.0 && stallCycles == 0)
        errors.push_back(strprintf(
            "stallCycles = 0: fault stalls (stallRate = %g) need a "
            "nonzero length",
            stallRate));
    if (maxRetries == 0)
        errors.push_back(
            "maxRetries = 0: fault recovery needs at least one retry");
    return errors;
}

void
FaultConfig::validate() const
{
    std::vector<std::string> errors = check();
    if (!errors.empty())
        fatal("%s", errors.front().c_str());
}

bool
FaultPlan::decide(FaultKind kind, Count cycle, unsigned slot,
                  double rate) const
{
    if (rate <= 0.0)
        return false;
    std::uint64_t h = mix(seed_ ^
                          (static_cast<std::uint64_t>(kind) + 1) *
                              0xd6e8feb86659fd93ULL);
    h = mix(h ^ cycle);
    h = mix(h ^ slot);
    // Top 53 bits -> uniform double in [0, 1).
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < rate;
}

FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config), plan_(config.seed)
{
    config_.validate();
}

unsigned
FaultInjector::stallFor(Count cycle)
{
    if (!plan_.decide(FaultKind::Stall, cycle, 0, config_.stallRate))
        return 0;
    stats_.stallEvents.inc();
    stats_.stallCycles.inc(config_.stallCycles);
    return config_.stallCycles;
}

bool
FaultInjector::dropAt(Count cycle, unsigned slot)
{
    if (!budgetLeft() ||
        !plan_.decide(FaultKind::Drop, cycle, slot, config_.dropRate))
        return false;
    ++injected_;
    stats_.dropped.inc();
    return true;
}

bool
FaultInjector::corruptAt(Count cycle, unsigned slot)
{
    if (!budgetLeft() ||
        !plan_.decide(FaultKind::Corrupt, cycle, slot,
                      config_.corruptRate))
        return false;
    ++injected_;
    stats_.corrupted.inc();
    return true;
}

} // namespace ringsim::fault
