/**
 * @file
 * Deterministic fault injection for the slotted ring.
 *
 * The paper's ring is ideal: no slot is ever lost and every message
 * completes in exactly one traversal. This subsystem relaxes that by
 * injecting three fault classes into the ring pipeline:
 *
 *  - slot corruption: an occupied slot's payload is flagged corrupt
 *    (header ECC survives, payload CRC fails); the first interface to
 *    see it discards the message and NACKs the sender;
 *  - slot drops: an occupied slot's message vanishes entirely (latch
 *    upset), recoverable only by the sender's retry timeout;
 *  - transient link stalls: the whole pipeline holds for a few cycles
 *    (resynchronisation), delaying but never losing traffic.
 *
 * The schedule is a pure function of (seed, fault kind, ring cycle,
 * slot index) — no RNG state advances — so a given seed produces the
 * identical fault pattern regardless of host, thread count or how the
 * queries interleave. Same seed => same faults, replayable byte for
 * byte.
 */

#ifndef RINGSIM_FAULT_FAULT_HPP
#define RINGSIM_FAULT_FAULT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.hpp"
#include "util/units.hpp"

namespace ringsim::fault {

/** The injectable fault classes. */
enum class FaultKind : unsigned {
    Corrupt, //!< payload corruption, detected and NACKed
    Drop,    //!< message lost outright, recovered by timeout
    Stall,   //!< transient whole-ring pipeline stall
};

/** Fault-injection and recovery parameters of one run. */
struct FaultConfig
{
    /** Per occupied slot, per ring cycle: corruption probability. */
    double corruptRate = 0.0;

    /** Per occupied slot, per ring cycle: drop probability. */
    double dropRate = 0.0;

    /** Per ring cycle: probability a transient stall begins. */
    double stallRate = 0.0;

    /** Length of one injected stall, in ring cycles. */
    unsigned stallCycles = 4;

    /** Seed of the deterministic fault schedule. */
    std::uint64_t seed = 1;

    /** Cap on injected corrupt+drop faults; 0 = unlimited. */
    Count maxFaults = 0;

    /** Retries before a transaction is declared a fatal fault. */
    unsigned maxRetries = 8;

    /**
     * Base retransmission timeout in ticks; 0 = auto (derived from
     * the ring round trip and the memory service times).
     */
    Tick retryTimeout = 0;

    /**
     * Base of the exponential retry backoff in ticks; 0 = auto (one
     * ring round trip). Attempt k waits base << (k - 1).
     */
    Tick backoffBase = 0;

    /** True when any fault rate is nonzero. */
    bool enabled() const {
        return corruptRate > 0.0 || dropRate > 0.0 || stallRate > 0.0;
    }

    /** All misconfigurations, as human-readable messages. */
    [[nodiscard]] std::vector<std::string> check() const;

    /** fatal() with the first check() error, if any. */
    void validate() const;
};

/**
 * The deterministic fault schedule: answers "does fault K occur at
 * (cycle, slot)?" as a pure hash of the inputs.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

    /** True when @p kind fires at (@p cycle, @p slot) under @p rate. */
    bool decide(FaultKind kind, Count cycle, unsigned slot,
                double rate) const;

  private:
    std::uint64_t seed_;
};

/** Fault and recovery event counters of one run. */
struct FaultStats
{
    stats::Counter corrupted;    //!< slots flagged corrupt
    stats::Counter dropped;      //!< messages lost outright
    stats::Counter stallEvents;  //!< stalls begun
    stats::Counter stallCycles;  //!< total stalled ring cycles
    stats::Counter nacks;        //!< NACKs sent by detecting nodes
    stats::Counter timeouts;     //!< watchdog expirations
    stats::Counter retries;      //!< transaction relaunches
    stats::Counter recovered;    //!< transactions completed after >= 1 retry
    stats::Counter fatals;       //!< transactions that exhausted retries
    stats::Counter staleEvents;  //!< late events from superseded attempts
    stats::Counter lostWritebacks; //!< traffic-only messages lost
};

/**
 * Stateful front end the ring queries each cycle: applies the plan,
 * enforces the fault budget, and owns the run's fault statistics.
 */
class FaultInjector
{
  public:
    /** @param config validated fault parameters. */
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return config_; }

    /**
     * Ring cycle @p cycle: stall length to begin now (0 = none).
     * Counts the stall when it fires.
     */
    unsigned stallFor(Count cycle);

    /** Should the message in @p slot be dropped this cycle? */
    bool dropAt(Count cycle, unsigned slot);

    /** Should the message in @p slot be corrupted this cycle? */
    bool corruptAt(Count cycle, unsigned slot);

    /** Corrupt + drop faults injected so far. */
    Count faultsInjected() const { return injected_; }

    FaultStats &stats() { return stats_; }
    const FaultStats &stats() const { return stats_; }

  private:
    bool budgetLeft() const {
        return config_.maxFaults == 0 || injected_ < config_.maxFaults;
    }

    FaultConfig config_;
    FaultPlan plan_;
    FaultStats stats_;
    Count injected_ = 0;
};

} // namespace ringsim::fault

#endif // RINGSIM_FAULT_FAULT_HPP
