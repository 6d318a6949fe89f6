/**
 * @file
 * Full-system assembly and run driver.
 *
 * Builds a complete timed system — synthetic trace streams, blocking
 * processors, the chosen coherence protocol, and the slotted ring or
 * split-transaction bus — runs it with a warmup window, and returns
 * the measurements the paper's figures plot. The measurement window
 * opens when every processor has passed its warmup prefix and closes
 * when the first processor exhausts its stream (so all processors are
 * active for the whole window).
 */

#ifndef RINGSIM_CORE_SYSTEM_HPP
#define RINGSIM_CORE_SYSTEM_HPP

#include <memory>

#include "coherence/census.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "trace/workload.hpp"

namespace ringsim::core {

/** What one timed run measured. */
struct RunResult
{
    /** Protocol and interconnect that produced this result. */
    ProtocolKind protocol = ProtocolKind::RingSnoop;

    /** Mean processor utilization (Figures 3/4/6, top row). */
    double procUtilization = 0;

    /** Ring slot / bus utilization (Figures 3/4/6, middle row). */
    double networkUtilization = 0;

    /** Mean remote-miss latency in ns (Figures 3/4/6, bottom row). */
    double missLatencyNs = 0;

    /** Mean miss latency including local misses, ns. */
    double missLatencyAllNs = 0;

    /** Mean invalidation latency, ns. */
    double upgradeLatencyNs = 0;

    /** Mean slot/arbiter acquisition wait, ns. */
    double acquireWaitNs = 0;

    /** Measurement window length in ticks. */
    Tick window = 0;

    /** Figure 5 class counts measured in the window. */
    Count localMisses = 0;
    Count cleanMiss1 = 0;
    Count dirtyMiss1 = 0;
    Count miss2 = 0;
    Count upgrades = 0;

    /** Post-warmup coherence census (for model calibration checks). */
    coherence::Census census;

    /**
     * Fault-injection outcome (all zero when injection is disabled, so
     * fault-free results stay identical to runs without the subsystem).
     */
    Count faultsInjected = 0; //!< corruptions + drops applied
    Count retries = 0;        //!< transaction relaunches
    Count recovered = 0;      //!< transactions completed after retries
    Count fatalTxns = 0;      //!< transactions that exhausted retries
    Count nacks = 0;          //!< NACKs sent for corrupt messages
    Count timeouts = 0;       //!< watchdog expirations
};

/**
 * Run @p workload on a slotted ring with the given protocol.
 * @p kind must be RingSnoop or RingDirectory.
 */
RunResult runRingSystem(const RingSystemConfig &config,
                        const trace::WorkloadConfig &workload,
                        ProtocolKind kind);

/** Run @p workload on the split-transaction snooping bus. */
RunResult runBusSystem(const BusSystemConfig &config,
                       const trace::WorkloadConfig &workload);

} // namespace ringsim::core

#endif // RINGSIM_CORE_SYSTEM_HPP
