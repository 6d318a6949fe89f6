/**
 * @file
 * Simulation time base and unit helpers.
 *
 * All simulated time is kept as an integer count of picoseconds (Tick).
 * The paper's parameters are naturally expressed in nanoseconds (ring
 * stage = 2 ns, memory = 140 ns, processor cycle = 1..20 ns), so every
 * quantity of interest is an exact integer in this base.
 */

#ifndef RINGSIM_UTIL_UNITS_HPP
#define RINGSIM_UTIL_UNITS_HPP

#include <cstdint>

namespace ringsim {

/** Simulated time in integer picoseconds. */
using Tick = std::uint64_t;

/** Cycle or event counts. */
using Count = std::uint64_t;

/** A byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Node (processor/memory module) identifier. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId invalidNode = ~NodeId(0);

/** One picosecond. */
inline constexpr Tick tickPs = 1;

/** Ticks per nanosecond. */
inline constexpr Tick tickNs = 1000;

/** Ticks per microsecond. */
inline constexpr Tick tickUs = 1000 * tickNs;

/** Ticks per millisecond. */
inline constexpr Tick tickMs = 1000 * tickUs;

/** Convert nanoseconds to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(tickNs) + 0.5);
}

/** Convert ticks to (double) nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickNs);
}

} // namespace ringsim

#endif // RINGSIM_UTIL_UNITS_HPP
