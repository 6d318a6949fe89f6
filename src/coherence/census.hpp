/**
 * @file
 * Coherence-event censuses.
 *
 * The hybrid methodology (paper Section 4.0) drives analytic models
 * with event counts measured by simulation. A Census is that record:
 * the reference mix, hit/miss behavior (identical for all three
 * write-invalidate protocols, which share the MSI state machine), and
 * one ProtocolCensus per protocol with its transaction classification,
 * ring-traversal distribution and message mileage.
 */

#ifndef RINGSIM_COHERENCE_CENSUS_HPP
#define RINGSIM_COHERENCE_CENSUS_HPP

#include <array>

#include "util/units.hpp"

namespace ringsim::coherence {

/** Index of the last (open) bucket of the traversal histograms. */
inline constexpr unsigned maxTraversalBucket = 3;

/**
 * Per-protocol transaction accounting.
 *
 * Traversal histograms: bucket 0 counts purely local transactions
 * (no ring use); bucket i (1..2) counts transactions needing i full
 * ring traversals; bucket 3 counts 3-or-more.
 */
struct ProtocolCensus
{
    /** Remote miss traversal distribution. */
    std::array<Count, maxTraversalBucket + 1> missTraversals{};

    /** Invalidation (upgrade) traversal distribution. */
    std::array<Count, maxTraversalBucket + 1> invTraversals{};

    /** Directory miss classes (Figure 5 naming). */
    Count cleanMiss1 = 0; //!< clean block, remote home, one traversal
    Count dirtyMiss1 = 0; //!< dirty block, one traversal
    Count miss2 = 0;      //!< remaining remote misses (two traversals)
    Count localMisses = 0; //!< served without using the ring

    /** Probe messages inserted and their total mileage in node hops. */
    Count probes = 0;
    double probeHops = 0;

    /** Block messages inserted and their total mileage in node hops. */
    Count blocks = 0;
    double blockHops = 0;

    /** Remote misses (ring transactions that fetch data). */
    Count remoteMisses() const {
        return missTraversals[1] + missTraversals[2] + missTraversals[3];
    }
};

/** The full census of one workload run. */
struct Census
{
    unsigned procs = 0;

    /** Reference mix. */
    Count instrRefs = 0;
    Count privateReads = 0;
    Count privateWrites = 0;
    Count sharedReads = 0;
    Count sharedWrites = 0;

    /** Hit/miss behavior (protocol independent). */
    Count hits = 0;
    Count privateMisses = 0;
    Count sharedMisses = 0;
    Count upgrades = 0;
    Count writebacks = 0;

    /** Per-protocol accounting. */
    ProtocolCensus snoop;
    ProtocolCensus fullMap;
    ProtocolCensus linkedList;

    Count dataRefs() const {
        return privateReads + privateWrites + sharedReads + sharedWrites;
    }

    Count privateRefs() const { return privateReads + privateWrites; }
    Count sharedRefs() const { return sharedReads + sharedWrites; }
    Count misses() const { return privateMisses + sharedMisses; }

    double totalMissRate() const {
        Count d = dataRefs();
        return d ? static_cast<double>(misses()) / d : 0.0;
    }

    double sharedMissRate() const {
        Count s = sharedRefs();
        return s ? static_cast<double>(sharedMisses) / s : 0.0;
    }

    double privateWriteFrac() const {
        Count p = privateRefs();
        return p ? static_cast<double>(privateWrites) / p : 0.0;
    }

    double sharedWriteFrac() const {
        Count s = sharedRefs();
        return s ? static_cast<double>(sharedWrites) / s : 0.0;
    }
};

} // namespace ringsim::coherence

#endif // RINGSIM_COHERENCE_CENSUS_HPP
